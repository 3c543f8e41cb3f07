// Shared, content-keyed cache of Gram panels (tsmath/gram.h).
//
// The expensive half of the spatial-regression fast path is the design-only
// GramPanel: O(m·N²) over the before-window control panel. The study
// elements of one multi-element assessment share theirs through the
// assessment's SharedDesign block (spatial_regression.h), which builds it
// directly and never looks here. The cache serves callers that assess one
// element at a time: a monitor keeps its before window fixed while the
// after window advances, and the per-element eval loops assess the study
// elements of one episode in turn. A batch sweep gives every change record
// its own control group, so its panels never repeat. The cache therefore
// holds the few most recent panels, not a working set.
//
// Keying. Entries are keyed purely by *content*: a 128-bit fingerprint of
// the packed design-matrix bytes plus its shape. Identity (which elements,
// which KPI, which window bins) never has to be threaded through the
// analyzer API, and invalidation is automatic — when any control value in
// the window changes, the key changes and the stale entry is overwritten
// in turn. Collisions need ~2⁶⁴ distinct panels (birthday bound) to
// become likely; a collision would return a panel for different data,
// which the exactness bitset check cannot catch, so the fingerprint width
// is part of the correctness budget, not just a tuning choice.
//
// Storage. A first-in, first-out ring of kSlots panels under one mutex: a
// lookup scans the ring's keys, an insert overwrites the oldest slot, and
// a hit does not move an entry. Panels are immutable after build and
// handed out as shared_ptr, so an overwritten panel stays alive until its
// last reader drops it. Misses build *outside* the lock; two threads
// racing on the same key may both build (identical bits — the build is
// deterministic) and the first insert wins.
//
// Determinism. A cache hit returns a panel bit-identical to a fresh
// build() of the same content, and the analyzer runs the same code either
// way, so verdicts and forecasts are unchanged by cache state or
// overwrite order (tests/litmus/panel_cache_test.cpp diffs cold and warm
// runs).
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
/// O(m·N) — negligible next to the O(m·N²) panel build it may save.
PanelKey fingerprint_design(const ts::Matrix& design) noexcept;

class PanelCache {
 public:
  using PanelPtr = std::shared_ptr<const ts::GramPanel>;
  using Builder = std::function<ts::GramPanel()>;

  /// Ring size. The study elements of one Table-2 row or of one
  /// `monitor` share a single panel, and every caller runs those one at a
  /// time, so one panel is live at once and a single slot keeps every
  /// reuse (DESIGN.md §10 has the counts). The three spare slots let a
  /// few assessments with distinct controls interleave without
  /// rebuilding. The ring bounds panels, not bytes: a batch sweep, which
  /// never reuses a panel, leaves at most kSlots behind,
  /// 8·(m·N + (N+1)²) bytes each for N controls over m bins, about 11 MB
  /// each at 1,000 controls over 336 bins.
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

  /// The process-wide cache the analyzers share.
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
