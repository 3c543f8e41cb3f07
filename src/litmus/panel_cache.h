// Content-keyed ring of Gram panels (tsmath/gram.h), which no analysis
// path looks up any more.
//
// A Gram panel belongs to the design it is built from. The study elements
// of one multi-element assessment share theirs through the assessment's
// SharedDesign block (spatial_regression.h); every other forecast() call —
// a batch record, a single-element assess, a monitor step, the eval loops —
// rebuilds its panel in place in its thread's scratch. A lookup here would
// not pay: a batch sweep gives every change record its own control group,
// so it would never hit, and a miss costs the fingerprint and the lock on
// top of the build (DESIGN.md §10).
//
// Why it is still here: the end-to-end benchmark (bench/e2e/bench_e2e.cpp)
// reads PanelCache::Stats, global(), stats() and clear(), and reaches this
// header only through litmus/batch.h. Deleting the class, its tests and
// the panel_cache.* metrics waits on a benchmark change that drops those
// calls; until then nothing in src, apps or examples calls it.
//
// Keying. Entries are keyed purely by *content*: a 128-bit fingerprint of
// the packed design-matrix bytes plus its shape. Collisions need ~2⁶⁴
// distinct panels (birthday bound) to become likely; a collision would
// return a panel for different data, which the exactness bitset check
// cannot catch, so the fingerprint width is part of the correctness
// budget, not just a tuning choice.
//
// Storage. A first-in, first-out ring of kSlots panels under one mutex: a
// lookup scans the ring's keys, an insert overwrites the oldest slot, and
// a hit does not move an entry. Panels are immutable after build and
// handed out as shared_ptr, so an overwritten panel stays alive until its
// last reader drops it. Misses build *outside* the lock; two threads
// racing on the same key may both build (identical bits — the build is
// deterministic) and the first insert wins.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

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
/// O(m·N), yet at the shapes the analyzer runs about a third of the
/// O(m·N²) panel build it would save (DESIGN.md §10).
PanelKey fingerprint_design(const ts::Matrix& design) noexcept;

class PanelCache {
 public:
  using PanelPtr = std::shared_ptr<const ts::GramPanel>;
  using Builder = std::function<ts::GramPanel()>;

  /// Ring size. It bounds panels, not bytes: 8·(m·N + (N+1)²) bytes each
  /// for N controls over m bins, about 11 MB each at 1,000 controls over
  /// 336 bins.
  static constexpr std::size_t kSlots = 4;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     ///< builds, a racing duplicate included
    std::uint64_t evictions = 0;  ///< panels overwritten in the ring
    std::size_t entries = 0;      ///< panels the ring holds now
  };

  /// Returns the ring's panel for `key`, or invokes `build`, stores the
  /// result over the oldest slot and returns it. Thread-safe; `build`
  /// runs without the lock held.
  PanelPtr get_or_build(const PanelKey& key, const Builder& build);

  /// Drops every entry (counters are kept).
  void clear();

  Stats stats() const;

  /// The process-wide instance. No analysis path reads it: its counters
  /// stay at zero unless a caller outside the library looks panels up.
  static PanelCache& global();

 private:
  struct Slot {
    PanelKey key;
    PanelPtr panel;
  };

  /// The ring's panel for `key`, or null. Caller holds mu_.
  PanelPtr find(const PanelKey& key) const;

  mutable std::mutex mu_;
  std::array<Slot, kSlots> ring_;
  std::size_t next_ = 0;  ///< the slot the next insert overwrites
  Stats stats_;
};

}  // namespace litmus::core
