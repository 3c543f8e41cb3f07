// The mmap chunk-parallel fast path must be indistinguishable from the
// serial CsvReader loader: bit-identical stores for well-formed input at
// every chunk count, and byte-identical CsvError messages for malformed
// input. These tests drive both parsers over shared corpora.
#include "io/ingest.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>

#include "io/csv.h"
#include "io/store.h"
#include "tsmath/random.h"

namespace litmus::io {
namespace {

namespace fs = std::filesystem;

// Bit-exact store equality: same keys, same layout, same value *bits*
// (NaN payloads included) — the determinism contract, not an epsilon.
void expect_stores_identical(const SeriesStore& a, const SeriesStore& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.entries().begin();
  for (const auto& [key, sa] : a.entries()) {
    ASSERT_EQ(key, ib->first);
    const ts::TimeSeries& sb = ib->second;
    ASSERT_EQ(sa.start_bin(), sb.start_bin());
    ASSERT_EQ(sa.bin_minutes(), sb.bin_minutes());
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sa[i]),
                std::bit_cast<std::uint64_t>(sb[i]))
          << "value " << i << " of element " << key.first;
    }
    ++ib;
  }
}

SeriesStore parse_serial(const std::string& csv, std::size_t* rows = nullptr) {
  std::istringstream in(csv);
  SeriesStore store;
  const std::size_t n = load_series_csv(in, store);
  if (rows) *rows = n;
  return store;
}

SeriesStore parse_fast(const std::string& csv, std::size_t chunks,
                       std::size_t* rows = nullptr) {
  SeriesStore store;
  IngestOptions opts;
  opts.force_chunks = chunks;
  const std::size_t n = load_series_csv_fast(csv, store, opts);
  if (rows) *rows = n;
  return store;
}

// A messy but valid corpus: comments, blanks, CRLF, padded fields, nan
// spellings, duplicate rows (last wins), out-of-order bins, sparse gaps.
std::string messy_csv() {
  return
      "# element_id, kpi_name, bin, value\n"
      "\n"
      "1, voice_retainability, -3, 0.97\r\n"
      "1, voice_retainability, -1, 0.98\n"
      "1, voice_retainability, -2, NaN\n"
      "  2 ,\tdata_retainability , 5 , 0.91 \n"
      "# interior comment\n"
      "2, data_retainability, 7, NAN\n"
      "1, voice_retainability, -3, 0.9701\n"  // duplicate bin: last wins
      "3, data_throughput, 100, 12345.5\n"
      "3, data_throughput, 90, nan\n"
      "2, data_retainability, 5, 0.9100001\n";  // another last-wins
}

std::string synthetic_csv(std::size_t rows) {
  ts::Rng rng(77);
  std::string csv = "# element_id, kpi_name, bin, value\n";
  const char* kpis[3] = {"voice_retainability", "data_accessibility",
                         "data_throughput"};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t e = 1 + rng.next_below(40);
    const char* k = kpis[rng.next_below(3)];
    const std::int64_t bin =
        static_cast<std::int64_t>(rng.next_below(500)) - 250;
    csv += std::to_string(e);
    csv += ',';
    csv += k;
    csv += ',';
    csv += std::to_string(bin);
    csv += ',';
    if (rng.chance(0.05)) {
      csv += "nan";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.9f", rng.next_double());
      csv += buf;
    }
    csv += '\n';
  }
  return csv;
}

TEST(ChunkBoundaries, NewlineAlignedAndDeterministic) {
  const std::string data = "aa\nbbbb\nc\n\ndddddd\neee";
  for (std::size_t n = 1; n <= 8; ++n) {
    const auto b = detail::chunk_boundaries(data, n);
    ASSERT_GE(b.size(), 2u);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), data.size());
    for (std::size_t i = 1; i < b.size(); ++i) {
      EXPECT_GE(b[i], b[i - 1]);
      if (i + 1 < b.size() && b[i] > 0 && b[i] < data.size()) {
        EXPECT_EQ(data[b[i] - 1], '\n') << "boundary " << i << " at " << b[i];
      }
    }
    // Same input, same split — twice.
    EXPECT_EQ(b, detail::chunk_boundaries(data, n));
  }
}

TEST(ChunkBoundaries, MoreChunksThanLines) {
  const auto b = detail::chunk_boundaries("x\ny\n", 16);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 4u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GE(b[i], b[i - 1]);
}

TEST(CountLines, MatchesGetlineSemantics) {
  EXPECT_EQ(detail::count_lines(""), 0u);
  EXPECT_EQ(detail::count_lines("a"), 1u);       // unterminated final line
  EXPECT_EQ(detail::count_lines("a\n"), 1u);
  EXPECT_EQ(detail::count_lines("a\nb"), 2u);
  EXPECT_EQ(detail::count_lines("a\nb\n"), 2u);
  EXPECT_EQ(detail::count_lines("\n\n\n"), 3u);
}

TEST(InputBuffer, MapFileSeesExactBytes) {
  const fs::path path =
      fs::temp_directory_path() / "litmus_ingest_mapfile_test.bin";
  const std::string payload = "line one\nline two\nbinary \0 byte\n";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  InputBuffer buf = InputBuffer::map_file(path.string());
  EXPECT_EQ(buf.view(), std::string_view(payload));
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(buf.mapped());
#endif
  InputBuffer moved = std::move(buf);
  EXPECT_EQ(moved.view(), std::string_view(payload));
  fs::remove(path);
}

TEST(InputBuffer, MissingFileThrows) {
  EXPECT_THROW(InputBuffer::map_file("/nonexistent/litmus-nope.csv"),
               std::runtime_error);
}

TEST(InputBuffer, DirectoryThrowsNamingThePath) {
  // A stream opened on a directory reads as an empty file; every opener
  // refuses it by name instead.
  const std::string dir = fs::temp_directory_path().string();
  const auto expect_refused = [&](auto open) {
    try {
      open();
      ADD_FAILURE() << "opened a directory";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(dir + ": is a directory"),
                std::string::npos)
          << e.what();
    }
  };
  expect_refused([&] { InputBuffer::map_file(dir); });
  expect_refused([&] { InputBuffer::map_file_shared(dir); });
  expect_refused([&] { open_input_stream(dir); });
}

TEST(InputBuffer, EmptyFileYieldsEmptyView) {
  const fs::path path = fs::temp_directory_path() / "litmus_ingest_empty.csv";
  { std::ofstream out(path, std::ios::binary); }
  InputBuffer buf = InputBuffer::map_file(path.string());
  EXPECT_EQ(buf.size(), 0u);
  fs::remove(path);
}

TEST(IngestFast, BitIdenticalToSerialAtEveryChunkCount) {
  const std::string csv = messy_csv();
  std::size_t serial_rows = 0;
  const SeriesStore serial = parse_serial(csv, &serial_rows);
  ASSERT_GT(serial.size(), 0u);
  for (std::size_t chunks : {1, 2, 3, 4, 5, 8}) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    std::size_t fast_rows = 0;
    const SeriesStore fast = parse_fast(csv, chunks, &fast_rows);
    EXPECT_EQ(fast_rows, serial_rows);
    expect_stores_identical(serial, fast);
  }
}

TEST(IngestFast, BitIdenticalOnSyntheticCorpus) {
  const std::string csv = synthetic_csv(5000);
  std::size_t serial_rows = 0;
  const SeriesStore serial = parse_serial(csv, &serial_rows);
  EXPECT_EQ(serial_rows, 5000u);
  for (std::size_t chunks : {1, 3, 7}) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    const SeriesStore fast = parse_fast(csv, chunks);
    expect_stores_identical(serial, fast);
  }
}

TEST(IngestFast, RoundTripThroughWriter) {
  // write_csv_row output must parse back to the exact same store on both
  // paths (the property the CSV round-trip has always promised).
  SeriesStore original;
  ts::Rng rng(3);
  for (std::uint32_t e = 1; e <= 6; ++e) {
    std::vector<double> values;
    for (int i = 0; i < 48; ++i)
      values.push_back(rng.chance(0.1) ? ts::kMissing
                                       : rng.normal(0.95, 0.01));
    original.put(net::ElementId{e}, kpi::KpiId::kVoiceRetainability,
                 ts::TimeSeries(-24, std::move(values)));
  }
  std::ostringstream out;
  for (const auto& [key, series] : original.entries())
    save_series_csv(out, net::ElementId{key.first}, key.second, series);
  const std::string csv = out.str();

  const SeriesStore serial = parse_serial(csv);
  const SeriesStore fast = parse_fast(csv, 4);
  expect_stores_identical(serial, fast);
  // The store itself round-trips too: format_value falls back to 17
  // significant digits whenever 10 would lose bits, and NaN round-trips
  // through "nan".
  expect_stores_identical(original, serial);
}

TEST(IngestFast, TruncatedFinalLineWithoutNewline) {
  std::string csv = messy_csv();
  csv += "9, data_throughput, 1, 5.5";  // no trailing '\n'
  const SeriesStore serial = parse_serial(csv);
  for (std::size_t chunks : {1, 2, 5}) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    expect_stores_identical(serial, parse_fast(csv, chunks));
  }
  EXPECT_TRUE(serial.contains(net::ElementId{9}, kpi::KpiId::kDataThroughput));
}

TEST(IngestFast, CommentOnlyAndEmptyInputs) {
  for (const std::string& csv :
       {std::string(""), std::string("\n\n"), std::string("# only\n# comments"),
        std::string("   \n\t\n")}) {
    SCOPED_TRACE("csv=[" + csv + "]");
    std::size_t rows = 99;
    const SeriesStore fast = parse_fast(csv, 3, &rows);
    EXPECT_EQ(rows, 0u);
    EXPECT_EQ(fast.size(), 0u);
  }
}

// Malformed rows must fail with *byte-identical* messages from both paths,
// pinned to the same 1-based physical line, regardless of the chunk split.
struct BadCase {
  const char* name;
  std::string csv;
};

std::vector<BadCase> bad_corpus() {
  std::vector<BadCase> cases;
  cases.push_back({"bad element id",
                   "# h\n1, voice_retainability, 0, 0.5\n"
                   "x, voice_retainability, 1, 0.5\n"});
  cases.push_back({"negative element id",
                   "-4, voice_retainability, 0, 0.5\n"});
  cases.push_back({"unknown kpi",
                   "1, voice_retainability, 0, 0.5\n"
                   "\n# c\n"
                   "1, bogus_kpi, 1, 0.5\n"});
  cases.push_back({"bad bin", "1, voice_retainability, 1.5, 0.5\n"});
  cases.push_back({"wrong field count",
                   "1, voice_retainability, 0, 0.5\n"
                   "1, voice_retainability, 0\n"});
  cases.push_back({"extra field",
                   "1, voice_retainability, 0, 0.5, surprise\n"});
  // Interior NUL bytes: NULs are field bytes, so the field fails to parse
  // like any other garbage — identically on both paths.
  std::string nul = "1, voice_retainability, 0, 0.5\n";
  nul += "1, voice_retainability, ";
  nul += '\0';
  nul += "7, 0.5\n";
  cases.push_back({"interior NUL", nul});
  // Error on the unterminated final line.
  cases.push_back({"truncated bad row",
                   "1, voice_retainability, 0, 0.5\nbroken"});
  return cases;
}

TEST(IngestFast, MalformedCorpusMatchesSerialErrors) {
  for (const BadCase& c : bad_corpus()) {
    SCOPED_TRACE(c.name);
    std::string serial_what;
    std::uint64_t serial_line = 0;
    try {
      (void)parse_serial(c.csv);
      FAIL() << "serial parser accepted " << c.name;
    } catch (const CsvError& e) {
      serial_what = e.what();
      serial_line = e.line();
    }
    for (std::size_t chunks : {1, 2, 4}) {
      SCOPED_TRACE("chunks=" + std::to_string(chunks));
      try {
        (void)parse_fast(c.csv, chunks);
        FAIL() << "fast parser accepted " << c.name;
      } catch (const CsvError& e) {
        EXPECT_EQ(std::string(e.what()), serial_what);
        EXPECT_EQ(e.line(), serial_line);
      }
    }
  }
}

TEST(IngestFast, FirstErrorInFileOrderWins) {
  // Two bad rows in different chunks: the reported error must be the
  // earliest one in *file* order even when a later chunk fails first.
  std::string csv;
  for (int i = 0; i < 50; ++i)
    csv += "1, voice_retainability, " + std::to_string(i) + ", 0.5\n";
  csv += "bad-row-a\n";
  for (int i = 50; i < 100; ++i)
    csv += "1, voice_retainability, " + std::to_string(i) + ", 0.5\n";
  csv += "2, nope_kpi, 0, 0.5\n";
  try {
    (void)parse_fast(csv, 4);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_EQ(e.line(), 51u);
    EXPECT_NE(std::string(e.what()).find("expected 4 fields"),
              std::string::npos)
        << e.what();
  }
}

TEST(IngestFast, ElementIdAboveUint32MatchesSerialError) {
  // 4294967306 would wrap onto element 10. The id sits on line 5 of 6, so
  // at 3 chunks its row is parsed by a later chunk than the first.
  std::string csv;
  for (int i = 0; i < 4; ++i)
    csv += "10, voice_retainability, " + std::to_string(i) + ", 0.5\n";
  csv += "4294967306, voice_retainability, 0, 0.5\n";
  csv += "10, voice_retainability, 4, 0.5\n";
  const std::string want = "series csv line 5: bad element id '4294967306'";
  try {
    (void)parse_serial(csv);
    FAIL() << "serial parser accepted the id";
  } catch (const CsvError& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
  for (const std::size_t chunks : {1, 3}) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    try {
      (void)parse_fast(csv, chunks);
      FAIL() << "fast parser accepted the id";
    } catch (const CsvError& e) {
      EXPECT_EQ(std::string(e.what()), want);
      EXPECT_EQ(e.line(), 5u);
    }
  }
}

TEST(CsvError, CarriesSixtyFourBitLineNumbers) {
  // >4Gi lines: a 40+ GiB export must still report the exact line.
  const std::uint64_t line = 5'000'000'123ull;
  const CsvError e("series csv", line, "bad bin 'x'");
  EXPECT_EQ(e.line(), line);
  EXPECT_STREQ(e.what(), "series csv line 5000000123: bad bin 'x'");
}

TEST(IngestFile, EndToEndWithoutSnapshotCache) {
  const fs::path path = fs::temp_directory_path() / "litmus_ingest_e2e.csv";
  const std::string csv = synthetic_csv(2000);
  {
    std::ofstream out(path, std::ios::binary);
    out << csv;
  }
  const IngestResult in = ingest_series_file(path.string());
  const IngestReport& rep = in.report;
  EXPECT_EQ(rep.rows, 2000u);
  EXPECT_EQ(rep.bytes, csv.size());
  EXPECT_FALSE(rep.from_snapshot);
  EXPECT_NE(rep.fingerprint, 0u);
  EXPECT_EQ(rep.series, in.series.size());
  ASSERT_NE(in.series.heap(), nullptr);
  expect_stores_identical(parse_serial(csv), *in.series.heap());
  fs::remove(path);
}

// Bins far apart would size a dense series past what one allocation can
// hold (or, at opposite ends of int64, overflow the span), and a series
// ending on the largest int64 bin has no one-past-the-end bin: both
// loaders refuse the series, naming it and its range, before allocating
// anything.
TEST(SeriesSpan, FarApartBinsThrowNamingTheRange) {
  const std::pair<std::string, std::string> cases[] = {
      {"10,voice_retainability,0,0.5\n"
       "10,voice_retainability,900000000000000000,0.5\n",
       "spans bins 0 to 900000000000000000: more than the 16777216 bins"},
      {"10,voice_retainability,-9000000000000000000,0.5\n"
       "10,voice_retainability,9000000000000000000,0.5\n",
       "spans bins -9000000000000000000 to 9000000000000000000: more than"},
      // 2^31 bins: a 16 GiB series.
      {"10,voice_retainability,0,0.5\n"
       "10,voice_retainability,2147483647,0.5\n",
       "spans bins 0 to 2147483647: more than the 16777216 bins"},
      {"10,voice_retainability,0,0.5\n"
       "10,voice_retainability,16777216,0.5\n",
       "spans bins 0 to 16777216: more than the 16777216 bins"},
      // Two bins, but TimeSeries::end_bin() would overflow.
      {"10,voice_retainability,9223372036854775806,0.5\n"
       "10,voice_retainability,9223372036854775807,0.5\n",
       "spans bins 9223372036854775806 to 9223372036854775807: its end bin "
       "does not fit in int64"},
  };
  for (const auto& [csv, range] : cases) {
    SCOPED_TRACE(range);
    const auto expect_span_error = [&](const auto& load) {
      try {
        load();
        FAIL() << "loaded a series that " << range;
      } catch (const SeriesSpanError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("element 10, KPI voice_retainability, " + range),
                  std::string::npos)
            << what;
      }
    };
    expect_span_error([&] { (void)parse_serial(csv); });
    for (const std::size_t chunks : {1, 2, 4})
      expect_span_error([&] { (void)parse_fast(csv, chunks); });
  }
}

// ---- mutation sweep over the series-CSV tokenizer -------------------------
//
// Every mutant of a small messy CSV goes through the serial loader, the
// reference, and through the fast path at 1 and 3 chunks. They must agree:
// bit-identical stores, or the same CsvError on the same line, or the same
// SeriesSpanError. Any other exception fails the sweep. The base has bins
// of one digit and values of at most three, and a random mutant edits at
// most three bytes, so only the digit-run splices (11 digits or more) can
// widen a series past a few thousand bins, and those go past
// kMaxSeriesBins.

const std::string kMutationBase =
    "# element_id, kpi_name, bin, value\n"
    "10,voice_retainability,-2,0.5\n"
    "10,voice_retainability,-1,\n"
    "10, voice_retainability ,0, nan\n"
    " 10 ,voice_retainability, 1 ,0.75 \r\n"
    "11,data_retainability,3,1.5\n"
    "11,data_retainability,4,2\n";

/// How one loader finished on a mutant.
struct LoadOutcome {
  enum Kind { kLoaded, kCsvError, kSpanError, kOther } kind = kLoaded;
  std::size_t rows = 0;
  std::string what;  ///< the exception's message
  SeriesStore store;
};

template <class Load>
LoadOutcome run_loader(const Load& load) {
  LoadOutcome out;
  try {
    out.rows = load(out.store);
  } catch (const CsvError& e) {
    out.kind = LoadOutcome::kCsvError;
    out.what = e.what();
  } catch (const SeriesSpanError& e) {
    out.kind = LoadOutcome::kSpanError;
    out.what = e.what();
  } catch (const std::exception& e) {
    out.kind = LoadOutcome::kOther;
    out.what = e.what();
  }
  return out;
}

/// `kind`, when non-null, receives how the serial loader finished.
void expect_loaders_agree(const std::string& csv,
                          LoadOutcome::Kind* kind = nullptr) {
  const LoadOutcome ref = run_loader([&](SeriesStore& store) {
    std::istringstream in(csv);
    return load_series_csv(in, store);
  });
  ASSERT_NE(ref.kind, LoadOutcome::kOther) << "serial: " << ref.what;
  if (kind) *kind = ref.kind;
  for (const std::size_t chunks : {1, 3}) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    const LoadOutcome fast = run_loader([&](SeriesStore& store) {
      IngestOptions opts;
      opts.force_chunks = chunks;
      return load_series_csv_fast(csv, store, opts);
    });
    ASSERT_EQ(fast.kind, ref.kind) << fast.what << " vs serial " << ref.what;
    ASSERT_EQ(fast.what, ref.what);
    if (ref.kind != LoadOutcome::kLoaded) continue;
    ASSERT_EQ(fast.rows, ref.rows);
    expect_stores_identical(ref.store, fast.store);
  }
}

std::string escaped(const std::string& bytes) {
  std::string out;
  for (const unsigned char c : bytes) {
    if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

TEST(IngestMutation, EveryByteFlipAgrees) {
  for (std::size_t i = 0; i < kMutationBase.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string csv = kMutationBase;
      csv[i] = static_cast<char>(csv[i] ^ mask);
      SCOPED_TRACE(escaped(csv));
      expect_loaders_agree(csv);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(IngestMutation, EveryTruncationAgrees) {
  for (std::size_t len = 0; len < kMutationBase.size(); ++len) {
    const std::string csv = kMutationBase.substr(0, len);
    SCOPED_TRACE(escaped(csv));
    expect_loaders_agree(csv);
    if (HasFatalFailure()) return;
  }
}

TEST(IngestMutation, RandomMutantsAgree) {
  // One to three overwrites, insertions or deletions, half of them drawn
  // from the bytes the grammar reacts to; every fourth mutant then gets a
  // long digit run in place of one row's bin field.
  constexpr std::string_view kGrammar = ",\n\r\t #-.0123456789eEn";
  std::mt19937_64 rng(20130209);
  const auto random_byte = [&] {
    return rng() % 2 == 0 ? kGrammar[rng() % kGrammar.size()]
                          : static_cast<char>(rng());
  };
  std::size_t outcomes[4] = {};
  for (int trial = 0; trial < 1000; ++trial) {
    std::string csv = kMutationBase;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < edits; ++k) {
      const std::size_t at = rng() % (csv.size() + 1);
      switch (rng() % 3) {
        case 0:
          if (at < csv.size()) csv[at] = random_byte();
          break;
        case 1:
          csv.insert(at, 1, random_byte());
          break;
        default:
          if (at < csv.size()) csv.erase(at, 1);
      }
    }
    if (trial % 4 == 0) {
      // The bin field of a random line: after its second comma, up to the
      // third (or the line's end).
      std::size_t line = 0;
      for (std::size_t n = rng() % 6; n > 0; --n) {
        const std::size_t nl = csv.find('\n', line);
        if (nl == std::string::npos) break;
        line = nl + 1;
      }
      const std::size_t c1 = csv.find(',', line);
      const std::size_t c2 =
          c1 == std::string::npos ? c1 : csv.find(',', c1 + 1);
      if (c2 != std::string::npos) {
        const std::size_t end = csv.find_first_of(",\n", c2 + 1);
        std::string run = rng() % 2 == 0 ? "-" : "";
        run += static_cast<char>('1' + rng() % 9);
        for (std::size_t n = 10 + rng() % 14; n > 0; --n)
          run += static_cast<char>('0' + rng() % 10);
        csv.replace(c2 + 1,
                    (end == std::string::npos ? csv.size() : end) - c2 - 1,
                    run);
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + escaped(csv));
    LoadOutcome::Kind kind = LoadOutcome::kOther;
    expect_loaders_agree(csv, &kind);
    if (HasFatalFailure()) return;
    ++outcomes[kind];
  }
  // Every kind of agreement happens, so each comparison ran.
  EXPECT_GT(outcomes[LoadOutcome::kLoaded], 0u);
  EXPECT_GT(outcomes[LoadOutcome::kCsvError], 0u);
  EXPECT_GT(outcomes[LoadOutcome::kSpanError], 0u);
}

// Scale smoke, off by default: LITMUS_INGEST_STRESS_ROWS=2000000 (or more)
// exercises multi-hundred-MiB inputs without shipping a 1 GiB CI artifact.
TEST(IngestFast, StressRowsEnvGated) {
  const char* env = std::getenv("LITMUS_INGEST_STRESS_ROWS");
  if (!env) GTEST_SKIP() << "set LITMUS_INGEST_STRESS_ROWS to run";
  const std::size_t rows = static_cast<std::size_t>(std::atoll(env));
  const std::string csv = synthetic_csv(rows);
  std::size_t serial_rows = 0, fast_rows = 0;
  const SeriesStore serial = parse_serial(csv, &serial_rows);
  const SeriesStore fast = parse_fast(csv, 8, &fast_rows);
  EXPECT_EQ(serial_rows, rows);
  EXPECT_EQ(fast_rows, rows);
  expect_stores_identical(serial, fast);
}

}  // namespace
}  // namespace litmus::io
