#include "io/csv.h"

#include <charconv>
#include <cmath>
#include <limits>

namespace litmus::io {

std::string_view trim_view(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

CsvError::CsvError(const std::string& source, std::uint64_t line,
                   const std::string& message)
    : std::runtime_error(source + " line " + std::to_string(line) + ": " +
                         message),
      line_(line) {}

CsvReader::CsvReader(std::istream& in, std::string source)
    : in_(&in), source_(std::move(source)) {}

const std::vector<std::string>* CsvReader::next() {
  while (std::getline(*in_, line_buf_)) {
    ++line_;
    const std::string_view t = trim_view(line_buf_);
    if (t.empty() || t[0] == '#') continue;
    split_csv_line_into(t, row_);
    return &row_;
  }
  return nullptr;
}

void CsvReader::fail(const std::string& message) const {
  throw CsvError(source_, line_, message);
}

void CsvReader::require_fields(const std::vector<std::string>& row,
                               std::size_t expected) const {
  if (row.size() != expected)
    fail("expected " + std::to_string(expected) + " fields, got " +
         std::to_string(row.size()));
}

void split_csv_line_into(std::string_view line,
                         std::vector<std::string>& fields) {
  std::size_t n = 0;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = line.find(',', pos);
    const std::string_view field = trim_view(
        comma == std::string_view::npos ? line.substr(pos)
                                        : line.substr(pos, comma - pos));
    if (n < fields.size())
      fields[n].assign(field.data(), field.size());
    else
      fields.emplace_back(field);
    ++n;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  fields.resize(n);
}

std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  split_csv_line_into(line, fields);
  return fields;
}

void write_csv_row(std::ostream& out,
                   const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << fields[i];
  }
  out << '\n';
}

std::optional<double> parse_double(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  // Exact fast path (Clinger 1990): a plain "[-]ddd[.ddd]" with at most 15
  // significant digits has an exactly representable mantissa (< 2^53) and
  // an exactly representable power of ten, so one IEEE division yields the
  // correctly rounded value — bit-identical to what from_chars returns,
  // at a fraction of the cost. Anything else (exponents, nan/inf, longer
  // digit strings, malformed input) defers to from_chars, the reference.
  static constexpr double kPow10[16] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                        1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                        1e12, 1e13, 1e14, 1e15};
  const char* p = s.data();
  const char* const end = p + s.size();
  bool neg = false;
  if (*p == '-') {
    neg = true;
    ++p;
  }
  std::uint64_t mant = 0;
  int n_digits = 0;
  int n_frac = 0;
  bool dot = false;
  bool plain = p < end;
  for (; p < end; ++p) {
    const char c = *p;
    if (c >= '0' && c <= '9') {
      mant = mant * 10 + static_cast<unsigned>(c - '0');
      ++n_digits;
      if (dot) ++n_frac;
    } else if (c == '.' && !dot) {
      dot = true;
    } else {
      plain = false;
      break;
    }
  }
  // A trailing dot ("1.") is not full-consume-parseable by from_chars, so
  // the fast path must bow out there too.
  if (plain && n_digits > 0 && n_digits <= 15 && (!dot || n_frac > 0)) {
    const double v = static_cast<double>(mant) / kPow10[n_frac];
    return neg ? -v : v;
  }
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

double parse_double_or_missing(std::string_view s) noexcept {
  // Every NaN — whatever the spelling or sign from_chars accepted — is
  // normalized to the one canonical quiet-NaN bit pattern (ts::kMissing),
  // so "missing" is a single bit-identical value in stores and snapshots.
  // So is ±inf: no KPI is infinite, and an infinite cell would otherwise
  // reach the regression as an observed value.
  constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();
  if (const auto v = parse_double(s))
    return std::isfinite(*v) ? *v : kMissing;
  // Padded inputs (callers usually pre-trim, but the API promises trim):
  // retry without the whitespace, then give up as missing. from_chars
  // already accepts "nan"/"NaN"/...; "na", "", and junk all land here.
  const std::string_view t = trim_view(s);
  if (t.size() != s.size()) {
    if (const auto v = parse_double(t))
      return std::isfinite(*v) ? *v : kMissing;
  }
  return kMissing;
}

std::optional<std::int64_t> parse_int(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace litmus::io
