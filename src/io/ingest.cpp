#include "io/ingest.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "io/csv.h"
#include "io/series_accum.h"
#include "io/snapshot.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"

#if defined(__unix__) || defined(__APPLE__)
#define LITMUS_HAVE_STAT 1
#include <sys/stat.h>
#else
#define LITMUS_HAVE_STAT 0
#endif

namespace litmus::io {

// ---------------------------------------------------------------------------
// Chunk planning

namespace detail {

std::vector<std::size_t> chunk_boundaries(std::string_view data,
                                          std::size_t n_chunks) {
  n_chunks = std::max<std::size_t>(1, n_chunks);
  std::vector<std::size_t> bounds;
  bounds.reserve(n_chunks + 1);
  bounds.push_back(0);
  for (std::size_t c = 1; c < n_chunks; ++c) {
    const std::size_t target = c * (data.size() / n_chunks);
    std::size_t b = std::max(target, bounds.back());
    // Align to just past the next newline so every chunk holds whole lines.
    if (b < data.size()) {
      const void* nl = std::memchr(data.data() + b, '\n', data.size() - b);
      b = nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                        data.data()) +
                   1
             : data.size();
    } else {
      b = data.size();
    }
    bounds.push_back(b);
  }
  bounds.push_back(data.size());
  return bounds;
}

std::uint64_t count_lines(std::string_view data) noexcept {
  std::uint64_t lines = 0;
  const char* p = data.data();
  const char* const end = p + data.size();
  while (p < end) {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    ++lines;
    if (!nl) break;
    p = static_cast<const char*>(nl) + 1;
  }
  return lines;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Chunk-parallel series parse

namespace {

struct ChunkOutcome {
  detail::SeriesAccum acc;
  std::uint64_t rows = 0;
  std::uint64_t lines = 0;  ///< physical lines up to and incl. a failure
  bool failed = false;
  std::uint64_t fail_line = 0;  ///< 1-based within the chunk
  std::string fail_msg;
};

/// Parses one newline-aligned chunk. Grammar and error messages match the
/// serial loader in io/store.cpp exactly; on the first bad row the chunk
/// records the failure and stops, as the serial parser would.
inline bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r';
}

/// First ',' or '\n' in [p, end), or `end` when neither occurs. SWAR over
/// 8-byte words (zero-byte trick) on little-endian targets; the per-byte
/// loop both finishes the tail and serves as the big-endian fallback.
inline const char* find_delim(const char* p, const char* const end) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t k01 = 0x0101010101010101ull;
    constexpr std::uint64_t k80 = 0x8080808080808080ull;
    constexpr std::uint64_t kComma = 0x2c2c2c2c2c2c2c2cull;
    constexpr std::uint64_t kNl = 0x0a0a0a0a0a0a0a0aull;
    while (end - p >= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      const std::uint64_t xc = w ^ kComma;
      const std::uint64_t xn = w ^ kNl;
      const std::uint64_t hit =
          (((xc - k01) & ~xc) | ((xn - k01) & ~xn)) & k80;
      if (hit) return p + (std::countr_zero(hit) >> 3);
      p += 8;
    }
  }
  while (p < end && *p != ',' && *p != '\n') ++p;
  return p;
}

/// Inline string_view equality, compared a word at a time: the memo
/// fields are 2-20 bytes, short enough that the out-of-line memcmp the
/// generic operator== emits costs more than the comparison itself.
inline bool sv_equal(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  const char* pa = a.data();
  const char* pb = b.data();
  std::size_t n = a.size();
  while (n >= 8) {
    std::uint64_t x, y;
    std::memcpy(&x, pa, 8);
    std::memcpy(&y, pb, 8);
    if (x != y) return false;
    pa += 8;
    pb += 8;
    n -= 8;
  }
  while (n-- > 0)
    if (*pa++ != *pb++) return false;
  return true;
}

/// Inline twin of parse_int for the short digit strings that fill series
/// exports; identical accept/reject behavior (longer inputs, where
/// overflow handling matters, defer to parse_int itself).
inline std::optional<std::int64_t> parse_int_inline(
    std::string_view s) noexcept {
  if (s.empty() || s.size() > 18) return parse_int(s);
  const char* p = s.data();
  const char* const end = p + s.size();
  bool neg = false;
  if (*p == '-') {
    neg = true;
    if (++p == end) return std::nullopt;
  }
  std::int64_t v = 0;
  for (; p < end; ++p) {
    const char c = *p;
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + (c - '0');
  }
  return neg ? -v : v;
}

void parse_series_chunk(std::string_view chunk, ChunkOutcome& out) {
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  const auto fail = [&](std::string msg) {
    out.failed = true;
    out.fail_line = out.lines;
    out.fail_msg = std::move(msg);
  };

  // Production exports write one series contiguously, so consecutive rows
  // almost always repeat the element and KPI fields byte-for-byte: memoize
  // the previous row's parse of both. A memo hit compares a handful of
  // bytes instead of re-running from_chars / the KPI name scan, and since
  // the bytes are identical the parse it skips would have produced the
  // identical value — determinism is untouched.
  std::string_view last_elem_text, last_kpi_text;
  std::uint32_t last_elem = 0;
  kpi::KpiId last_kpi{};

  while (p < end) {
    ++out.lines;
    while (p < end && is_ws(*p)) ++p;  // '\n' is not in the ws set
    if (p == end) break;               // ws-only final line, no newline
    if (*p == '\n') {                  // blank line
      ++p;
      continue;
    }
    if (*p == '#') {  // comment: skip to end of line
      const void* nl =
          std::memchr(p, '\n', static_cast<std::size_t>(end - p));
      p = nl ? static_cast<const char*>(nl) + 1 : end;
      continue;
    }

    // Tokenize the row delimiter-to-delimiter: find_delim locates the next
    // ',' or '\n' a word at a time, then only the field edges are touched
    // to trim — the same character class and semantics as trim_view +
    // split_csv_line. Only the first four fields are kept, but all are
    // counted so the field-count error message matches require_fields().
    std::string_view field[4];
    std::size_t n_fields = 0;
    const char* field_start = p;
    for (;;) {
      const char* const d = find_delim(field_start, end);
      const char* a = field_start;
      const char* b = d;
      while (a < b && is_ws(*a)) ++a;
      while (b > a && is_ws(b[-1])) --b;
      if (n_fields < 4)
        field[n_fields] =
            std::string_view(a, static_cast<std::size_t>(b - a));
      ++n_fields;
      if (d == end || *d == '\n') {
        p = (d == end) ? end : d + 1;
        break;
      }
      field_start = d + 1;
    }
    if (n_fields != 4)
      return fail("expected 4 fields, got " + std::to_string(n_fields));

    std::uint32_t elem;
    if (!last_elem_text.empty() && sv_equal(field[0], last_elem_text)) {
      elem = last_elem;
    } else {
      const auto element = parse_int_inline(field[0]);
      if (!element || *element <= 0)
        return fail("bad element id '" + std::string(field[0]) + "'");
      elem = static_cast<std::uint32_t>(*element);
      last_elem_text = field[0];
      last_elem = elem;
    }
    kpi::KpiId kid;
    if (!last_kpi_text.empty() && sv_equal(field[1], last_kpi_text)) {
      kid = last_kpi;
    } else {
      const auto kpi_id = kpi::parse_kpi(field[1]);
      if (!kpi_id) return fail("unknown KPI '" + std::string(field[1]) + "'");
      kid = *kpi_id;
      last_kpi_text = field[1];
      last_kpi = kid;
    }
    const auto bin = parse_int_inline(field[2]);
    if (!bin) return fail("bad bin '" + std::string(field[2]) + "'");
    const double value = parse_double_or_missing(field[3]);

    out.acc.add(elem, kid, *bin, value);
    ++out.rows;
  }
}

// Source mtime in nanoseconds since the epoch, 0 when unavailable. Only a
// freshness shortcut — 0 simply forces the full re-hash.
std::uint64_t file_mtime_ns(const std::string& path) noexcept {
#if LITMUS_HAVE_STAT
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
#if defined(__APPLE__)
  const auto& mt = st.st_mtimespec;
#else
  const auto& mt = st.st_mtim;
#endif
  return static_cast<std::uint64_t>(mt.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(mt.tv_nsec);
#else
  std::error_code ec;
  const auto t = std::filesystem::last_write_time(path, ec);
  if (ec) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
#endif
}

// Records the ingest.* counters and gauges for a completed ingest.
void record_ingest_metrics(const IngestReport& rep) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter("ingest.rows").add(rep.rows);
  reg.counter("ingest.bytes").add(rep.bytes);
  if (rep.seconds > 0.0) {
    reg.gauge("ingest.rows_per_s")
        .set(static_cast<double>(rep.rows) / rep.seconds);
    reg.gauge("ingest.bytes_per_s")
        .set(static_cast<double>(rep.bytes) / rep.seconds);
  }
}

}  // namespace

std::size_t load_series_csv_fast(std::string_view data, SeriesStore& store,
                                 const IngestOptions& opts,
                                 std::size_t* chunks_used) {
  std::size_t n_chunks = opts.force_chunks;
  if (n_chunks == 0) {
    const std::size_t by_size = std::max<std::size_t>(
        1, data.size() / std::max<std::size_t>(1, opts.min_chunk_bytes));
    n_chunks = std::min(par::threads(), by_size);
  }
  const auto bounds = detail::chunk_boundaries(data, n_chunks);
  const std::size_t actual = bounds.size() - 1;
  if (chunks_used) *chunks_used = actual;

  std::vector<ChunkOutcome> outcomes(actual);
  par::parallel_for(actual, [&](std::size_t c) {
    obs::ScopedSpan chunk_span("ingest.chunk");
    parse_series_chunk(data.substr(bounds[c], bounds[c + 1] - bounds[c]),
                       outcomes[c]);
  });

  // The first failure in chunk order is the first failure in file order
  // (every earlier chunk parsed to completion); prefix line counts pin it
  // to the same 1-based physical line the serial reader reports.
  std::uint64_t line_base = 0;
  for (const ChunkOutcome& oc : outcomes) {
    if (oc.failed)
      throw CsvError(opts.source_name, line_base + oc.fail_line,
                     oc.fail_msg);
    line_base += oc.lines;
  }

  std::uint64_t rows = 0;
  detail::SeriesAccum merged = std::move(outcomes.front().acc);
  rows += outcomes.front().rows;
  for (std::size_t c = 1; c < actual; ++c) {
    merged.merge_after(std::move(outcomes[c].acc));
    rows += outcomes[c].rows;
  }
  std::move(merged).build_into(store);
  return static_cast<std::size_t>(rows);
}

SeriesSource::SeriesSource(std::unique_ptr<const SeriesStore> heap)
    : heap_(std::move(heap)) {}

SeriesSource::SeriesSource(std::unique_ptr<const MappedStore> mapped)
    : mapped_(std::move(mapped)) {}

std::size_t SeriesSource::size() const noexcept {
  return heap_ ? heap_->size() : mapped_->size();
}

core::SeriesProvider SeriesSource::provider() const {
  return heap_ ? heap_->provider() : mapped_->provider();
}

std::optional<std::int64_t> SeriesSource::end_bin(net::ElementId element,
                                                  kpi::KpiId kpi) const {
  if (heap_) {
    if (!heap_->contains(element, kpi)) return std::nullopt;
    return heap_->get(element, kpi).end_bin();
  }
  const MappedStore::SeriesView* v = mapped_->find(element, kpi);
  if (!v) return std::nullopt;
  return v->end_bin();
}

IngestResult ingest_series_file(const std::string& path,
                                const IngestOptions& opts) {
  IngestReport rep;
  const std::uint64_t t0 = obs::now_ns();
  const auto finish = [&](SeriesSource series) {
    rep.series = series.size();
    rep.seconds = static_cast<double>(obs::now_ns() - t0) / 1e9;
    record_ingest_metrics(rep);
    return IngestResult{std::move(series), rep};
  };

  const InputBuffer buf = InputBuffer::map_file(path);
  rep.bytes = buf.size();
  const std::uint64_t mtime_ns = file_mtime_ns(path);
  bool have_fingerprint = false;

  if (!opts.snapshot_dir.empty()) {
    // The cache file is keyed by the source *path*, so the probe needs no
    // pass over the source bytes. When the snapshot's recorded
    // (size, mtime) still matches the source's stat, its recorded content
    // fingerprint is trusted outright — the same freshness rule `make`
    // uses — and a warm hit costs one stat + mapping the snapshot (whose
    // payload checksum is always verified). On any stat mismatch, or when
    // LITMUS_SNAPSHOT_VERIFY=1, the source is re-hashed and the
    // fingerprint comparison decides; a source edit therefore lands on
    // the fingerprint check even if size and mtime were forged back.
    rep.snapshot_path = snapshot_cache_path(
        opts.snapshot_dir, obs::fnv1a64(path.data(), path.size()));
    const auto meta = read_snapshot_meta(rep.snapshot_path);
    if (meta) {
      const char* verify_env = std::getenv("LITMUS_SNAPSHOT_VERIFY");
      const bool trusted = (!verify_env || !*verify_env ||
                            std::string_view(verify_env) == "0") &&
                           mtime_ns != 0 && meta->source_mtime_ns != 0 &&
                           meta->source_bytes == rep.bytes &&
                           meta->source_mtime_ns == mtime_ns;
      rep.fingerprint = trusted
                            ? meta->fingerprint
                            : obs::fnv1a64(buf.view().data(), buf.size());
      // A trusted fingerprint came from the snapshot header; it is only
      // safe to keep if that snapshot actually validated end to end.
      have_fingerprint = !trusted;
      // The identity check reads the header of the bytes actually mapped,
      // so a snapshot swapped in after the probe is caught here too.
      std::string why;
      std::unique_ptr<const MappedStore> mapped =
          MappedStore::open(rep.snapshot_path, &why);
      if (mapped && mapped->meta().fingerprint != rep.fingerprint) {
        why = "source fingerprint changed";
        mapped.reset();
      } else if (mapped && mapped->meta().source_bytes != rep.bytes) {
        why = "source size changed";
        mapped.reset();
      }
      if (mapped) {
        // A hit that needed the full content check means the source was
        // touched without changing; refresh the recorded mtime so the
        // next probe can take the stat shortcut again.
        if (!trusted && mtime_ns != 0 &&
            mapped->meta().source_mtime_ns != mtime_ns)
          refresh_snapshot_mtime(rep.snapshot_path, mtime_ns);
        rep.from_snapshot = true;
        if (obs::enabled())
          obs::Registry::global().counter("ingest.snapshot_hits").add();
        return finish(SeriesSource(std::move(mapped)));
      }
      std::fprintf(stderr, "note: stale snapshot %s (%s); re-parsing\n",
                   rep.snapshot_path.c_str(), why.c_str());
    }
  }

  if (!have_fingerprint)
    rep.fingerprint = obs::fnv1a64(buf.view().data(), buf.size());
  auto store = std::make_unique<SeriesStore>();
  rep.rows = load_series_csv_fast(buf.view(), *store, opts, &rep.chunks);
  if (!opts.snapshot_dir.empty()) {
    if (obs::enabled())
      obs::Registry::global().counter("ingest.snapshot_misses").add();
    save_series_snapshot(rep.snapshot_path, *store, rep.fingerprint,
                         rep.bytes, mtime_ns);
  }
  return finish(SeriesSource(std::move(store)));
}

}  // namespace litmus::io
