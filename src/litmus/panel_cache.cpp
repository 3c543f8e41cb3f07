#include "litmus/panel_cache.h"

#include <bit>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::core {
namespace {

/// Two independent multiply-xorshift streams; 128 bits of fingerprint so a
/// colliding pair of distinct panels is out of reach (see header).
struct Fingerprinter {
  std::uint64_t a = 0x9ae16a3b2f90404full;
  std::uint64_t b = 0xc3a5c85c97cb3127ull;

  void add(std::uint64_t v) noexcept {
    a = (a ^ v) * 0x00000100000001b3ull;
    a ^= a >> 33;
    b = (b + v) * 0xff51afd7ed558ccdull;
    b ^= b >> 29;
  }
};

/// Publishes counter deltas and the resident entry count to the global
/// obs registry.
void observe(std::uint64_t hit_delta, std::uint64_t miss_delta,
             std::uint64_t evict_delta, std::size_t entries) {
  if (!obs::enabled()) return;
  // The registry hands out stable references; resolve the names once so
  // the per-assessment path never rebuilds metric-name strings.
  struct Handles {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
    obs::Gauge& entries;
  };
  static Handles h{obs::Registry::global().counter("panel_cache.hits"),
                   obs::Registry::global().counter("panel_cache.misses"),
                   obs::Registry::global().counter("panel_cache.evictions"),
                   obs::Registry::global().gauge("panel_cache.entries")};
  if (hit_delta > 0) h.hits.add(hit_delta);
  if (miss_delta > 0) h.misses.add(miss_delta);
  if (evict_delta > 0) h.evictions.add(evict_delta);
  h.entries.set(static_cast<double>(entries));
}

}  // namespace

PanelKey fingerprint_design(const ts::Matrix& design) noexcept {
  Fingerprinter fp;
  fp.add(design.rows());
  fp.add(design.cols());
  for (std::size_t c = 0; c < design.cols(); ++c)
    for (const double v : design.column(c))
      fp.add(std::bit_cast<std::uint64_t>(v));
  return PanelKey{fp.a, fp.b};
}

PanelCache& PanelCache::global() {
  // Intentionally immortal: pool workers hit the cache and can outlive the
  // start of static destruction on the main thread. See
  // thread_name_registry() in profile.cpp.
  static PanelCache* cache = new PanelCache();
  return *cache;
}

PanelCache::PanelPtr PanelCache::find(const PanelKey& key) const {
  for (const Slot& s : ring_)
    if (s.panel && s.key == key) return s.panel;
  return nullptr;
}

PanelCache::PanelPtr PanelCache::get_or_build(const PanelKey& key,
                                              const Builder& build) {
  {
    std::unique_lock lock(mu_);
    if (PanelPtr panel = find(key)) {
      ++stats_.hits;
      const std::size_t entries = stats_.entries;
      lock.unlock();
      observe(1, 0, 0, entries);
      return panel;
    }
  }

  PanelPtr panel;
  {
    obs::ScopedSpan span("panel-cache.build");
    panel = std::make_shared<const ts::GramPanel>(build());
  }

  // Released after the lock: an overwritten panel, or ours when another
  // thread inserted the same content first.
  PanelPtr dropped;
  std::uint64_t evicted = 0;
  std::size_t entries = 0;
  {
    std::unique_lock lock(mu_);
    ++stats_.misses;
    if (PanelPtr first = find(key)) {
      // Its bits are identical to ours (the build is deterministic).
      dropped = std::exchange(panel, std::move(first));
    } else {
      Slot& slot = ring_[next_];
      next_ = (next_ + 1) % kSlots;
      if (slot.panel)
        evicted = 1;
      else
        ++stats_.entries;
      stats_.evictions += evicted;
      slot.key = key;
      dropped = std::exchange(slot.panel, panel);
    }
    entries = stats_.entries;
  }
  observe(0, 1, evicted, entries);
  return panel;
}

void PanelCache::clear() {
  std::array<Slot, kSlots> dropped;
  {
    std::unique_lock lock(mu_);
    dropped.swap(ring_);
    next_ = 0;
    stats_.entries = 0;
  }
  observe(0, 0, 0, 0);
}

PanelCache::Stats PanelCache::stats() const {
  std::unique_lock lock(mu_);
  return stats_;
}

}  // namespace litmus::core
