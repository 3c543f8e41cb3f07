// High-throughput ingest for production-scale series exports.
//
// Two layers (DESIGN.md §11):
//
//  1. Fast parse — the file is memory-mapped (read into a heap buffer when
//     mmap is unavailable), split into newline-aligned chunks, and each
//     chunk is parsed on the parallel::Pool with zero-copy
//     std::string_view field splitting and std::from_chars numeric
//     conversion: no per-row or per-field allocations. Per-chunk partial
//     accumulators merge in chunk order, so the resulting SeriesStore is
//     bit-identical to serial parsing at any thread count and any chunk
//     split (the same determinism contract as DESIGN.md §8). Each chunk
//     also counts its physical lines; prefix sums turn a chunk-local parse
//     failure into the same line-accurate CsvError the serial reader
//     throws, with 64-bit line numbers for multi-GiB exports.
//
//  2. Snapshot cache — a versioned binary columnar snapshot
//     (".litmus-snap", io/snapshot.h) keyed by the FNV-1a hash of the
//     source *path*, recording the FNV-1a fingerprint of the source
//     *bytes* plus the source's (size, mtime). ingest_series_file()
//     consults the cache directory first: while the source's stat matches
//     what the snapshot recorded, the recorded content fingerprint is
//     trusted (make-style freshness) and a warm hit costs one stat plus
//     mapping the snapshot through MappedStore::open, which verifies its
//     checksum — no pass over the source and no copy of the columns. On a
//     stat mismatch, or with LITMUS_SNAPSHOT_VERIFY=1, the source is
//     re-hashed and compared against the mapped header's fingerprint.
//     Stale snapshots (source changed, codec version bumped, corrupt file)
//     are invalidated automatically and rewritten after the parse.
//
// Either way the series come back as one SeriesSource: the heap store a
// parse built, or the mapped snapshot a hit opened, behind one provider.
//
// Observability: ingest.rows / ingest.bytes counters,
// ingest.snapshot_hits / ingest.snapshot_misses, and ingest.rows_per_s /
// ingest.bytes_per_s gauges land in --metrics-json (a hit adds the
// store.* metrics of the open). They describe how the data arrived, never
// what was computed, so diff-runs ignores them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/input_buffer.h"
#include "io/mapped_store.h"
#include "io/store.h"

namespace litmus::io {

struct IngestOptions {
  /// 0 = auto: min(parallel worker count, size / min_chunk_bytes). Tests
  /// force a chunk count to exercise merging on small inputs.
  std::size_t force_chunks = 0;
  std::size_t min_chunk_bytes = 256 * 1024;
  /// Snapshot cache directory; empty disables the cache.
  std::string snapshot_dir;
  /// Input name used in CsvError messages.
  std::string source_name = "series csv";
};

struct IngestReport {
  std::uint64_t rows = 0;        ///< CSV data rows parsed (0 on snapshot hit)
  std::uint64_t bytes = 0;       ///< source CSV size in bytes
  std::uint64_t series = 0;      ///< series the ingest produced
  std::uint64_t fingerprint = 0; ///< FNV-1a 64 of the source CSV bytes
  std::size_t chunks = 1;        ///< parallel chunks the parse used
  bool from_snapshot = false;
  std::string snapshot_path;     ///< resolved cache file ("" when disabled)
  double seconds = 0.0;
};

/// Chunk-parallel parse of an in-memory series CSV into `store`. Returns
/// the data-row count; throws CsvError exactly as the serial loader would.
/// `chunks_used`, when non-null, receives the actual chunk count.
std::size_t load_series_csv_fast(std::string_view data, SeriesStore& store,
                                 const IngestOptions& opts = {},
                                 std::size_t* chunks_used = nullptr);

/// The series a run reads, behind one provider: the heap store a CSV
/// parse built, or a mapped `.litmus-snap` (a snapshot-cache hit, or a
/// snapshot named directly). Holds exactly one of the two; providers
/// borrow it, so it must outlive them. Move-only.
class SeriesSource {
 public:
  explicit SeriesSource(std::unique_ptr<const SeriesStore> heap);
  explicit SeriesSource(std::unique_ptr<const MappedStore> mapped);

  std::size_t size() const noexcept;
  core::SeriesProvider provider() const;
  /// One past the last stored bin of (element, kpi); nullopt when absent.
  std::optional<std::int64_t> end_bin(net::ElementId element,
                                      kpi::KpiId kpi) const;

  /// The held store: exactly one of these is non-null.
  const SeriesStore* heap() const noexcept { return heap_.get(); }
  const MappedStore* mapped() const noexcept { return mapped_.get(); }

 private:
  std::unique_ptr<const SeriesStore> heap_;
  std::unique_ptr<const MappedStore> mapped_;
};

struct IngestResult {
  SeriesSource series;
  IngestReport report;
};

/// Full ingest of a series CSV file: fingerprint, snapshot-cache probe,
/// fast parse + snapshot write on miss. Records the ingest metrics. A hit
/// returns the mapped snapshot, a miss the parsed heap store.
IngestResult ingest_series_file(const std::string& path,
                                const IngestOptions& opts = {});

namespace detail {

/// `n_chunks + 1` ascending offsets into `data`; every interior boundary
/// sits immediately after a '\n', so each chunk is a whole number of
/// physical lines. Depends only on (data, n_chunks) — never on scheduling.
std::vector<std::size_t> chunk_boundaries(std::string_view data,
                                          std::size_t n_chunks);

/// Physical line count of `data`: '\n' count plus a trailing unterminated
/// line, matching what std::getline would yield.
std::uint64_t count_lines(std::string_view data) noexcept;

}  // namespace detail

}  // namespace litmus::io
