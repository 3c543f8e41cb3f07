#include "io/mapped_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::io {
namespace {

/// Major page-fault count of this process (/proc/self/stat field 12);
/// 0 where unsupported. The comm field may contain spaces or ')', so the
/// numeric fields are parsed from after the *last* ')'.
std::uint64_t proc_major_faults() noexcept {
  std::FILE* f = std::fopen("/proc/self/stat", "r");
  if (!f) return 0;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (!p) return 0;
  ++p;
  // Fields after comm: state ppid pgrp session tty_nr tpgid flags minflt
  // cminflt majflt ... — majflt is the 10th token after ')'.
  unsigned long long majflt = 0;
  if (std::sscanf(p, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %llu",
                  &majflt) != 1)
    return 0;
  return majflt;
}

void record_store_metrics(const MappedStore::OpenStats& st) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter("store.opens").add();
  reg.gauge("store.open_seconds").set(st.seconds);
  reg.gauge("store.bytes_mapped")
      .set(static_cast<double>(st.bytes_mapped));
  reg.gauge("store.series").set(static_cast<double>(st.series));
  reg.gauge("store.majflt_delta")
      .set(static_cast<double>(st.major_faults));
}

bool entry_key_less(const MappedStore::Entry& a,
                    const MappedStore::Entry& b) noexcept {
  return a.key < b.key;
}

}  // namespace

std::unique_ptr<MappedStore> MappedStore::open(const std::string& path,
                                               std::string* why) {
  obs::ScopedSpan span("store.open");
  const std::uint64_t t0 = obs::now_ns();
  const std::uint64_t majflt0 = proc_major_faults();
  const auto fail = [&](std::string reason) {
    if (why) *why = std::move(reason);
    return std::unique_ptr<MappedStore>{};
  };

  std::unique_ptr<MappedStore> store(new MappedStore());
  store->path_ = path;
  try {
    store->buf_ = InputBuffer::map_file_shared(path);
  } catch (const std::runtime_error& e) {
    return fail(e.what());
  }
  const std::string_view data = store->buf_.view();
  const auto header = decode_snapshot_header(data, why);
  if (!header) return nullptr;
  store->meta_ = header->meta;
  const std::uint64_t n_series = header->n_series;
  const std::uint64_t payload_bytes = header->payload_bytes;
  const std::size_t body = data.size() - sizeof(SnapshotHeader);
  if (body < sizeof(std::uint64_t) ||
      payload_bytes != body - sizeof(std::uint64_t))
    return fail("payload size mismatch");
  // Every record is at least its header, so a larger count is corrupt
  // (and must not size the index reservation below).
  if (n_series > payload_bytes / sizeof(SnapshotRecordHeader))
    return fail("series count exceeds payload");

  const char* const payload = data.data() + sizeof(SnapshotHeader);
  std::uint64_t recorded_fnv = 0;
  std::memcpy(&recorded_fnv, payload + payload_bytes, sizeof recorded_fnv);
  if (obs::fnv1a64(payload, payload_bytes) != recorded_fnv)
    return fail("payload checksum mismatch");

  // Walk the record table, building the key-sorted index of zero-copy
  // views. The checksum above covers every payload byte, but record-level
  // structure (counts, KPI ids) is still validated so a snapshot written
  // by a buggy producer is rejected rather than served.
  store->index_.reserve(static_cast<std::size_t>(n_series));
  const char* rp = payload;
  const char* const rend = payload + payload_bytes;
  for (std::uint64_t s = 0; s < n_series; ++s) {
    SnapshotRecordHeader rec;
    if (static_cast<std::size_t>(rend - rp) < sizeof rec)
      return fail("truncated record header");
    std::memcpy(&rec, rp, sizeof rec);
    rp += sizeof rec;
    if (rec.kpi >
        static_cast<std::uint32_t>(kpi::KpiId::kDroppedVoiceCallRatio))
      return fail("unknown KPI id");
    if (rec.n_values > static_cast<std::size_t>(rend - rp) / sizeof(double))
      return fail("truncated values");
    // end_bin() must not overflow.
    if (rec.start_bin > std::numeric_limits<std::int64_t>::max() -
                            static_cast<std::int64_t>(rec.n_values))
      return fail("bin range overflows");
    Entry e;
    e.key = {rec.element, static_cast<kpi::KpiId>(rec.kpi)};
    e.view.start_bin = rec.start_bin;
    e.view.bin_minutes = rec.bin_minutes;
    // 8-byte alignment is a format guarantee (io/snapshot.h): header 56B,
    // record headers 32B, value columns n*8B.
    e.view.values = std::span<const double>(
        reinterpret_cast<const double*>(rp),
        static_cast<std::size_t>(rec.n_values));
    store->index_.push_back(e);
    rp += rec.n_values * sizeof(double);
  }
  if (rp != rend) return fail("trailing bytes after records");

  // Both writers emit records ascending by key (SnapshotWriter contract,
  // std::map iteration); keep the O(n) verify with a sort fallback so a
  // foreign-but-valid snapshot still serves, with last-wins duplicate
  // semantics matching SeriesStore::put.
  if (!std::is_sorted(store->index_.begin(), store->index_.end(),
                      entry_key_less)) {
    std::stable_sort(store->index_.begin(), store->index_.end(),
                     entry_key_less);
    std::vector<Entry> dedup;
    dedup.reserve(store->index_.size());
    for (std::size_t i = 0; i < store->index_.size(); ++i)
      if (i + 1 == store->index_.size() ||
          store->index_[i + 1].key != store->index_[i].key)
        dedup.push_back(store->index_[i]);
    store->index_ = std::move(dedup);
  }

  store->open_stats_.seconds =
      static_cast<double>(obs::now_ns() - t0) / 1e9;
  store->open_stats_.bytes_mapped = store->buf_.size();
  store->open_stats_.series = store->index_.size();
  const std::uint64_t majflt1 = proc_major_faults();
  store->open_stats_.major_faults =
      majflt1 >= majflt0 ? majflt1 - majflt0 : 0;
  record_store_metrics(store->open_stats_);
  return store;
}

bool MappedStore::contains(net::ElementId element, kpi::KpiId kpi) const
    noexcept {
  return find(element, kpi) != nullptr;
}

const MappedStore::SeriesView* MappedStore::find(net::ElementId element,
                                                 kpi::KpiId kpi) const
    noexcept {
  const SeriesStore::Key key{element.value, kpi};
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const Entry& e, const SeriesStore::Key& k) { return e.key < k; });
  if (it == index_.end() || it->key != key) return nullptr;
  return &it->view;
}

core::SeriesProvider MappedStore::provider() const {
  return [this](net::ElementId element, kpi::KpiId kpi, std::int64_t start,
                std::size_t n) {
    // Identical window semantics to SeriesStore::provider(): an hourly
    // window of n bins, the stored bit patterns where the stored column
    // overlaps it and kMissing elsewhere.
    ts::TimeSeries window(start, n, 60);
    if (const SeriesView* v = find(element, kpi))
      ts::copy_bins(v->start_bin, v->values, start, window.mutable_values());
    return window;
  };
}

}  // namespace litmus::io
