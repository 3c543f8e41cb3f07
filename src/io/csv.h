// Minimal CSV reading/writing for the interchange formats in io/store.h.
// No quoting dialects: fields are comma-separated, '#' starts a comment
// line, blank lines are skipped. That covers the telemetry exports this
// library consumes and keeps the parser obviously correct.
//
// Two parsers share these primitives: the istream CsvReader below (simple,
// line-number-accurate, used by every loader) and the mmap chunk-parallel
// fast path in io/ingest.h (same grammar, same error messages, built for
// multi-million-row series exports).
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace litmus::io {

/// Parse failure with the 1-based source line attached, so a bad export
/// can be fixed without bisecting the file ("series csv line 841: ...").
/// The line is a 64-bit count: exports past 4 G lines still report exact
/// positions.
class CsvError : public std::runtime_error {
 public:
  CsvError(const std::string& source, std::uint64_t line,
           const std::string& message);

  std::uint64_t line() const noexcept { return line_; }

 private:
  std::uint64_t line_;
};

/// Row reader that tracks physical line numbers across skipped comments
/// and blanks. `source` names the input in error messages (e.g.
/// "topology csv").
class CsvReader {
 public:
  CsvReader(std::istream& in, std::string source);

  /// Next data row (skipping comments/blanks); nullptr at EOF. The
  /// returned vector is a reused internal buffer — valid until the next
  /// next() call, so a million-row load allocates O(fields) instead of
  /// O(rows * fields).
  const std::vector<std::string>* next();

  /// 1-based line number of the most recently returned row (0 before the
  /// first next()).
  std::uint64_t line() const noexcept { return line_; }

  /// Throws CsvError pinned to the current row's line.
  [[noreturn]] void fail(const std::string& message) const;

  /// fail() unless the current row has exactly `expected` fields.
  void require_fields(const std::vector<std::string>& row,
                      std::size_t expected) const;

 private:
  std::istream* in_;
  std::string source_;
  std::uint64_t line_ = 0;
  std::string line_buf_;
  std::vector<std::string> row_;
};

/// `s` without leading/trailing spaces, tabs, or carriage returns — the
/// same character class every parser here trims, so CRLF exports and
/// padded fields behave identically on every path.
std::string_view trim_view(std::string_view s) noexcept;

/// Splits one CSV line into trimmed fields.
std::vector<std::string> split_csv_line(std::string_view line);

/// Splits into `fields`, reusing its string capacity row over row.
void split_csv_line_into(std::string_view line,
                         std::vector<std::string>& fields);

/// Writes one row, joining fields with commas.
void write_csv_row(std::ostream& out, const std::vector<std::string>& fields);

/// Strict numeric parses; nullopt on any trailing garbage. Inputs are
/// expected pre-trimmed (CsvReader and the fast path both trim fields).
std::optional<double> parse_double(std::string_view s) noexcept;
std::optional<std::int64_t> parse_int(std::string_view s) noexcept;

/// Missing-tolerant value parse: empty, "nan"/"na" in any case and with
/// surrounding whitespace (trim_view's class) read as missing, as do
/// "inf"/"-inf"/"infinity" and anything unparseable.
double parse_double_or_missing(std::string_view s) noexcept;

}  // namespace litmus::io
