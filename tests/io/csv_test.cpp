#include "io/csv.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>

namespace litmus::io {
namespace {

TEST(Csv, SplitTrimsFields) {
  const auto f = split_csv_line(" a , b,c ,  d\t");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
  EXPECT_EQ(f[3], "d");
}

TEST(Csv, SplitKeepsEmptyFields) {
  const auto f = split_csv_line("a,,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "");
}

TEST(CsvReader, SkipsCommentsAndBlanks) {
  std::istringstream in("# header\n\n1,2\n  \n# more\n3,4\n");
  CsvReader reader(in, "test csv");
  const auto* r1 = reader.next();
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ((*r1)[0], "1");
  const auto* r2 = reader.next();
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ((*r2)[1], "4");
  EXPECT_EQ(reader.next(), nullptr);
}

TEST(Csv, WriteRow) {
  std::ostringstream out;
  write_csv_row(out, {"x", "y", "z"});
  EXPECT_EQ(out.str(), "x,y,z\n");
}

TEST(Csv, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_double("-0.25"), -0.25);
  EXPECT_FALSE(parse_double("3.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(Csv, ParseDoubleOrMissing) {
  EXPECT_DOUBLE_EQ(parse_double_or_missing("1.5"), 1.5);
  EXPECT_TRUE(std::isnan(parse_double_or_missing("nan")));
  EXPECT_TRUE(std::isnan(parse_double_or_missing("NA")));
  EXPECT_TRUE(std::isnan(parse_double_or_missing("")));
  EXPECT_TRUE(std::isnan(parse_double_or_missing("junk")));
}

TEST(Csv, ParseDoubleOrMissingCaseAndWhitespaceVariants) {
  // Upper/mixed-case and padded spellings must behave exactly like the
  // canonical "nan" — the trim is the same one field splitting applies.
  EXPECT_TRUE(std::isnan(parse_double_or_missing("NAN")));
  EXPECT_TRUE(std::isnan(parse_double_or_missing("NaN")));
  EXPECT_TRUE(std::isnan(parse_double_or_missing(" nan ")));
  EXPECT_TRUE(std::isnan(parse_double_or_missing("\tNA ")));
  EXPECT_TRUE(std::isnan(parse_double_or_missing("na")));
  EXPECT_DOUBLE_EQ(parse_double_or_missing("  2.5\t"), 2.5);
}

TEST(Csv, ParseDoubleOrMissingMapsInfinityToMissing) {
  // An infinite KPI cell is read as missing, with the same canonical NaN
  // bits as a blank cell, never as an observed ±inf.
  const double blank = parse_double_or_missing("");
  for (const char* text :
       {"inf", "-inf", "+inf", "INF", "infinity", "-Infinity", " inf "}) {
    const double v = parse_double_or_missing(text);
    EXPECT_TRUE(std::isnan(v)) << text;
    EXPECT_EQ(std::memcmp(&v, &blank, sizeof v), 0) << text;
  }
  EXPECT_DOUBLE_EQ(parse_double_or_missing("-1e300"), -1e300);
}

TEST(CsvReader, TracksPhysicalLineNumbers) {
  std::istringstream in("# header\n\n1,2\n  \n# more\n3,4\n");
  CsvReader reader(in, "test csv");
  EXPECT_EQ(reader.line(), 0u);
  const auto* r1 = reader.next();
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(reader.line(), 3u);  // two skipped lines before the first row
  const auto* r2 = reader.next();
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(reader.line(), 6u);
  EXPECT_EQ(reader.next(), nullptr);
}

TEST(CsvReader, FailReportsSourceAndLine) {
  std::istringstream in("# header\nok,row\nbad\n");
  CsvReader reader(in, "test csv");
  (void)reader.next();
  (void)reader.next();
  try {
    reader.fail("bad field 'x'");
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_STREQ(e.what(), "test csv line 3: bad field 'x'");
  }
}

TEST(CsvReader, RequireFieldsThrowsOnColumnMismatch) {
  std::istringstream in("a,b,c\n");
  CsvReader reader(in, "test csv");
  const auto* row = reader.next();
  ASSERT_NE(row, nullptr);
  EXPECT_NO_THROW(reader.require_fields(*row, 3));
  try {
    reader.require_fields(*row, 4);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_STREQ(e.what(), "test csv line 1: expected 4 fields, got 3");
  }
}

TEST(Csv, ParseDoubleFastPathMatchesFromChars) {
  // parse_double's short-decimal fast path must agree bit-for-bit with
  // from_chars (the reference) on every input it accepts.
  const auto reference = [](std::string_view s) -> std::optional<double> {
    double v = 0;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || ptr != s.data() + s.size())
      return std::nullopt;
    return v;
  };
  const char* cases[] = {
      "0",       "-0",        "0.0",          "-0.0",
      "1",       "-1",        "0.973245",     "-0.973245",
      "12345.6789",           "0.000000000000097",
      "999999999999999",      "0.999999999999999",
      "1.",      ".5",        "-.5",          ".",
      "-",       "1e3",       "1.5e-7",       "nan",
      "inf",     "0007",      "1..2",         "1.2.3",
      "123456789012345678901", "+1",          "",
  };
  for (const char* c : cases) {
    const auto got = parse_double(c);
    const auto want = reference(c);
    ASSERT_EQ(got.has_value(), want.has_value()) << "input [" << c << "]";
    if (got && !std::isnan(*got)) {
      EXPECT_EQ(*got, *want) << "input [" << c << "]";
      EXPECT_EQ(std::signbit(*got), std::signbit(*want))
          << "input [" << c << "]";
    }
  }
}

TEST(Csv, ParseIntStrict) {
  EXPECT_EQ(*parse_int("-42"), -42);
  EXPECT_EQ(*parse_int("7"), 7);
  EXPECT_FALSE(parse_int("7.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

}  // namespace
}  // namespace litmus::io
