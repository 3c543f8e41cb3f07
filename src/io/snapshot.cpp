#include "io/snapshot.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/manifest.h"
#include "obs/trace.h"

namespace litmus::io {
namespace {

constexpr std::uint32_t kEndianTag = 0x01020304;

template <typename T>
void write_raw(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

}  // namespace

std::optional<SnapshotHeader> decode_snapshot_header(std::string_view bytes,
                                                     std::string* why) {
  const auto fail = [&](const char* reason) {
    if (why) *why = reason;
    return std::optional<SnapshotHeader>{};
  };
  SnapshotHeader h;
  if (bytes.size() < sizeof h) return fail("truncated header");
  std::memcpy(&h, bytes.data(), sizeof h);
  if (std::string_view(h.magic, sizeof h.magic) != kSnapshotMagic)
    return fail("bad magic");
  if (h.version != kSnapshotVersion) return fail("version mismatch");
  if (h.endian_tag != kEndianTag) return fail("foreign endianness");
  return h;
}

std::string snapshot_cache_path(const std::string& dir, std::uint64_t key) {
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(key));
  return dir + "/" + hex + std::string(kSnapshotSuffix);
}

std::optional<SnapshotMeta> read_snapshot_meta(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  char header[sizeof(SnapshotHeader)];
  if (!f.read(header, sizeof header)) return std::nullopt;
  const auto h = decode_snapshot_header({header, sizeof header}, nullptr);
  if (!h) return std::nullopt;
  return h->meta;
}

void refresh_snapshot_mtime(const std::string& path,
                            std::uint64_t source_mtime_ns) noexcept {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  f.seekp(offsetof(SnapshotHeader, meta) +
          offsetof(SnapshotMeta, source_mtime_ns));
  write_raw(f, source_mtime_ns);
}

SnapshotWriter::SnapshotWriter(const std::string& path,
                               std::uint64_t source_fingerprint,
                               std::uint64_t source_bytes,
                               std::uint64_t source_mtime_ns)
    : path_(path),
      out_(obs::open_output_file(path)),
      payload_fnv_(14695981039346656037ull) {  // FNV-1a offset basis
  SnapshotHeader h;  // n_series and payload_bytes are patched in finish()
  std::memcpy(h.magic, kSnapshotMagic.data(), sizeof h.magic);
  h.version = kSnapshotVersion;
  h.endian_tag = kEndianTag;
  h.meta = {source_fingerprint, source_bytes, source_mtime_ns};
  write_raw(out_, h);
}

SnapshotWriter::~SnapshotWriter() {
  try {
    finish();
  } catch (...) {
    // A destructor cannot report I/O failure; callers that care call
    // finish() explicitly and see the throw.
  }
}

void SnapshotWriter::append(net::ElementId element, kpi::KpiId kpi,
                            const ts::TimeSeries& series) {
  append(element.value, kpi, series.start_bin(), series.bin_minutes(),
         series.values());
}

void SnapshotWriter::append(std::uint32_t element, kpi::KpiId kpi,
                            std::int64_t start_bin, std::int32_t bin_minutes,
                            std::span<const double> values) {
  SnapshotRecordHeader rec;
  rec.element = element;
  rec.kpi = static_cast<std::uint32_t>(kpi);
  rec.start_bin = start_bin;
  rec.bin_minutes = bin_minutes;
  rec.n_values = values.size();
  const std::size_t value_bytes = values.size() * sizeof(double);
  write_raw(out_, rec);
  out_.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(value_bytes));
  payload_fnv_ = obs::fnv1a64(&rec, sizeof rec, payload_fnv_);
  payload_fnv_ = obs::fnv1a64(values.data(), value_bytes, payload_fnv_);
  payload_bytes_ += sizeof rec + value_bytes;
  ++n_series_;
}

void SnapshotWriter::finish() {
  if (finished_) return;
  finished_ = true;
  write_raw(out_, payload_fnv_);
  out_.seekp(offsetof(SnapshotHeader, n_series));  // then payload_bytes
  write_raw(out_, n_series_);
  write_raw(out_, payload_bytes_);
  out_.flush();
  if (!out_) throw std::runtime_error("cannot write snapshot: " + path_);
}

void save_series_snapshot(const std::string& path, const SeriesStore& store,
                          std::uint64_t source_fingerprint,
                          std::uint64_t source_bytes,
                          std::uint64_t source_mtime_ns) {
  obs::ScopedSpan span("snapshot.save");
  SnapshotWriter writer(path, source_fingerprint, source_bytes,
                        source_mtime_ns);
  for (const auto& [key, series] : store.entries())
    writer.append(key.first, key.second, series.start_bin(),
                  series.bin_minutes(), series.values());
  writer.finish();
}

}  // namespace litmus::io
