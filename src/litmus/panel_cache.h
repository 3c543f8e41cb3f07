// Shared, content-keyed cache of Gram panels (tsmath/gram.h).
//
// The expensive half of the spatial-regression fast path is the design-only
// GramPanel: O(m·N²) over the before-window control panel. Litmus re-derives
// that panel far more often than its content changes — every study element
// of a multi-element assessment regresses onto the *same* control columns,
// a batch sweep revisits the same control group record after record, and
// the monitor loop keeps the before window fixed while it advances the
// after window. This cache lets all of them share one build.
//
// Keying. Entries are keyed purely by *content*: a 128-bit fingerprint of
// the packed design-matrix bytes plus its shape. Identity (which elements,
// which KPI, which window bins) never has to be threaded through the
// analyzer API, and invalidation is automatic — when any control value in
// the window changes, the key changes and the stale entry simply ages out
// of the LRU. Collisions need ~2⁶⁴ distinct panels (birthday bound) to
// become likely; a collision would return a panel for different data,
// which the exactness bitset check cannot catch, so the fingerprint width
// is part of the correctness budget, not just a tuning choice.
//
// Concurrency. The map is sharded by key; each shard has its own mutex and
// its own slice of the byte budget, so concurrent batch records and study
// elements never serialize on one lock. Panels are immutable after build
// and handed out as shared_ptr, so an entry evicted while another thread
// still computes on it stays alive until the last reader drops it. Misses build *outside* the shard lock; two threads
// racing on the same key may both build (identical bits — the build is
// deterministic) and the first insert wins.
//
// Determinism. A cache hit returns a panel bit-identical to a fresh
// build() of the same content, and the analyzer runs the same code either
// way, so verdicts and forecasts are unchanged by cache state, capacity,
// or eviction order (tests/litmus/panel_cache_test.cpp diffs cache-on vs
// cache-off runs). Capacity 0 disables storage entirely — get_or_build
// degenerates to calling the builder.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "tsmath/gram.h"
#include "tsmath/matrix.h"

namespace litmus::core {

/// 128-bit content fingerprint (see fingerprint_design()).
struct PanelKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const PanelKey&) const noexcept = default;
};

/// Fingerprints a design matrix: shape plus every value's bit pattern
/// (missing bins hash identically because kMissing is one canonical NaN).
/// O(m·N) — negligible next to the O(m·N²) panel build it may save.
PanelKey fingerprint_design(const ts::Matrix& design) noexcept;

class PanelCache {
 public:
  using PanelPtr = std::shared_ptr<const ts::GramPanel>;
  using Builder = std::function<ts::GramPanel()>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< current resident panel bytes
    std::size_t entries = 0;  ///< current resident panel count
  };

  /// Cache with the given byte budget (0 = caching disabled).
  explicit PanelCache(std::size_t capacity_bytes = 0);

  /// Returns the cached panel for `key`, or invokes `build`, stores the
  /// result (evicting least-recently-used entries past the byte budget)
  /// and returns it. Thread-safe; `build` runs without any cache lock
  /// held. With capacity 0 the builder's result is returned unstored.
  PanelPtr get_or_build(const PanelKey& key, const Builder& build);

  /// Changes the byte budget; shrinking evicts immediately. Capacity 0
  /// also drops every resident entry.
  void set_capacity_bytes(std::size_t capacity_bytes);
  std::size_t capacity_bytes() const noexcept;

  /// Drops every entry (counters are kept).
  void clear();

  Stats stats() const;

  /// The process-wide cache the analyzers share. Its budget is 64 MiB
  /// until set_capacity_bytes() changes it (litmus_cli --panel-cache-mb).
  static PanelCache& global();

 private:
  static constexpr std::size_t kShards = 8;

  struct Entry {
    PanelKey key;
    PanelPtr panel;
    std::size_t bytes = 0;
  };
  struct KeyHash {
    std::size_t operator()(const PanelKey& k) const noexcept {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
    }
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<PanelKey, std::list<Entry>::iterator, KeyHash> map;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_of(const PanelKey& key) noexcept {
    // hi mixes every input word (see fingerprint_design), so its low bits
    // spread keys evenly across shards.
    return shards_[static_cast<std::size_t>(key.hi) % kShards];
  }

  /// Evicts from the tail until the shard fits its budget slice. With
  /// `keep_front` the most-recently-used entry survives even over budget,
  /// so a panel larger than the shard slice is still cached until the
  /// next insert displaces it (otherwise a tight budget could never
  /// produce a single hit); explicit shrinks evict strictly. Caller holds
  /// the shard lock; evicted panels are released after unlock via the
  /// returned list to keep destructor work outside the lock.
  std::list<Entry> evict_over_budget(Shard& s, bool keep_front);

  /// Publishes gauges + eviction delta to the global obs registry.
  void observe(std::uint64_t hit_delta, std::uint64_t miss_delta,
               std::uint64_t evict_delta) const;

  std::atomic<std::size_t> capacity_bytes_;
  /// Resident totals across shards, maintained at insert/evict so the
  /// byte/entry gauges and stats() never need to sweep every shard lock.
  std::atomic<std::size_t> total_bytes_{0};
  std::atomic<std::size_t> total_entries_{0};
  Shard shards_[kShards];
};

}  // namespace litmus::core
