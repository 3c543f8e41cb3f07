// Mmap-served read-only columnar series store (DESIGN.md §15).
//
// A MappedStore opens a `.litmus-snap` snapshot (io/snapshot.h) with
// mmap(PROT_READ, MAP_SHARED) and serves every series as a zero-copy view
// straight over the mapped pages — no per-process heap materialisation of
// the columns at all. N workers (or N processes) assessing the same corpus
// share one set of physical pages; the kernel pages columns in on demand
// and evicts them under pressure, so the resident cost is what the run
// actually touches, not the corpus size. It is the only reader of the
// format: `batch --series-snap` and every snapshot-cache hit of
// ingest_series_file (io/ingest.h) are served from it.
//
// Safety and validation. open() validates the full format before exposing
// anything: the header (decode_snapshot_header: magic, codec version,
// endian tag), the payload size, and the trailing FNV-1a payload checksum
// over every payload byte. A snapshot that fails any check yields nullptr
// plus a one-line reason — never a half-populated store. The record index
// is built in the same validation pass, so a truncated record table is
// caught before first use.
//
// Read-only contract. The mapping is PROT_READ: the store never writes a
// byte, the kernel shares the pages MAP_SHARED across every consumer, and
// any concurrent writer that truncates the file out from under a reader is
// a caller contract violation (snapshot writes go through rotation, never
// in-place truncation). All accessors are const and thread-safe without
// locks; N threads may fetch windows concurrently (the TSan-covered
// concurrent-reader tests in tests/io/mapped_store_test.cpp pin this).
//
// Window semantics are those of SeriesStore::provider(), through the same
// routine (ts::copy_bins): the overlap with the stored column is one copy
// of the stored bit patterns (NaN missing values included), and bins
// outside the column are kMissing. Everything downstream — the SIMD
// kernels, the panel cache — runs unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/input_buffer.h"
#include "io/snapshot.h"
#include "io/store.h"

namespace litmus::io {

class MappedStore {
 public:
  /// Zero-copy view of one stored series: `values` points into the mapped
  /// pages (8-byte aligned by the snapshot format).
  struct SeriesView {
    std::int64_t start_bin = 0;
    std::int32_t bin_minutes = 60;
    std::span<const double> values;

    std::int64_t end_bin() const noexcept {
      return start_bin + static_cast<std::int64_t>(values.size());
    }
  };

  /// How an open() performed, for the store.* metrics.
  struct OpenStats {
    double seconds = 0.0;          ///< open + validate + index wall time
    std::uint64_t bytes_mapped = 0;
    std::uint64_t series = 0;
    /// Major page faults the open incurred (/proc/self/stat delta; 0 where
    /// unsupported). Cold opens fault the whole payload in for the
    /// checksum pass; warm opens should show ~none.
    std::uint64_t major_faults = 0;
  };

  /// Opens and fully validates a snapshot. Returns nullptr with a one-line
  /// reason in `why` on any failure (unreadable file or a directory, bad
  /// magic, version/endian mismatch, truncation, checksum mismatch,
  /// malformed record table). Records the store.* metrics when obs is
  /// enabled.
  static std::unique_ptr<MappedStore> open(const std::string& path,
                                           std::string* why = nullptr);

  std::size_t size() const noexcept { return index_.size(); }
  std::uint64_t bytes_mapped() const noexcept { return buf_.size(); }
  const std::string& path() const noexcept { return path_; }
  const SnapshotMeta& meta() const noexcept { return meta_; }
  const OpenStats& open_stats() const noexcept { return open_stats_; }

  bool contains(net::ElementId element, kpi::KpiId kpi) const noexcept;
  /// The view for (element, kpi), or nullptr when absent. O(log n).
  const SeriesView* find(net::ElementId element, kpi::KpiId kpi) const
      noexcept;

  /// Key-sorted read access to every view (store-equality tests, tools).
  struct Entry {
    SeriesStore::Key key;
    SeriesView view;
  };
  const std::vector<Entry>& entries() const noexcept { return index_; }

  /// Provider over the mapped pages, bit-identical to the heap
  /// SeriesStore::provider() for an equivalent store. The returned
  /// closure borrows `this`; the store must outlive it.
  core::SeriesProvider provider() const;

 private:
  MappedStore() = default;

  std::string path_;
  InputBuffer buf_;  ///< MAP_SHARED PROT_READ mapping of the snapshot
  SnapshotMeta meta_;
  OpenStats open_stats_;
  std::vector<Entry> index_;  ///< ascending by key
};

}  // namespace litmus::io
