#include "obs/manifest.h"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "obs/json.h"

namespace litmus::obs {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t len,
                      std::uint64_t seed) noexcept {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t fnv1a64(std::istream& in, std::uint64_t* bytes) {
  constexpr std::uint64_t kOffset = 14695981039346656037ull;
  std::uint64_t hash = kOffset;
  std::uint64_t total = 0;
  char chunk[65536];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    const std::streamsize got = in.gcount();
    hash = fnv1a64(chunk, static_cast<std::size_t>(got), hash);
    total += static_cast<std::uint64_t>(got);
    if (!in) break;
  }
  if (bytes) *bytes = total;
  return hash;
}

InputFingerprint fingerprint_file(const std::string& path) {
  InputFingerprint fp;
  fp.path = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) return fp;
  fp.hash = fnv1a64(in, &fp.bytes);
  fp.ok = true;
  return fp;
}

std::string build_flags_string() {
  std::string flags;
  // obs is always compiled in; the field stays because diff-runs and
  // check_bench_regression.py read it.
  flags += "obs=on,assert=";
#ifdef NDEBUG
  flags += "off";
#else
  flags += "on";
#endif
  // Debug (-O0) numbers are not comparable with optimized ones;
  // check_bench_regression.py refuses to trust a run whose manifest says
  // opt=off. (google-benchmark's own context.library_build_type reports
  // how *its* library was compiled, not this code.)
  flags += ",opt=";
#ifdef __OPTIMIZE__
  flags += "on";
#else
  flags += "off";
#endif
  return flags;
}

std::string utc_timestamp_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[24];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void RunManifest::add_config(std::string key, std::string value,
                             bool is_informational) {
  if (is_informational) informational.push_back(key);
  config.emplace_back(std::move(key), std::move(value));
}

void RunManifest::add_input(std::string path, std::uint64_t bytes,
                            std::uint64_t hash) {
  InputFingerprint fp;
  fp.path = std::move(path);
  fp.bytes = bytes;
  fp.hash = hash;
  fp.ok = true;
  inputs.push_back(std::move(fp));
}

void RunManifest::write(JsonWriter& w) const {
  w.begin_object();
  w.member("schema", static_cast<std::int64_t>(schema));
  w.member("tool", tool);
  w.member("version", version);
  w.member("build_flags",
           build_flags.empty() ? build_flags_string() : build_flags);
  w.member("threads", static_cast<std::uint64_t>(threads));
  w.member("seed", seed);
  w.member("rng_scheme", rng_scheme);
  w.member("started_at_utc", started_at_utc);
  w.member("simd_detected", simd_detected);
  w.member("simd_dispatch", simd_dispatch);
  w.key("config").begin_object();
  for (const auto& [k, v] : config) w.member(k, v);
  w.end_object();
  w.key("informational").begin_array();
  for (const std::string& k : informational) w.value(k);
  w.end_array();
  w.key("inputs").begin_array();
  for (const InputFingerprint& fp : inputs) {
    w.begin_object()
        .member("path", fp.path)
        .member("bytes", fp.bytes)
        .member("fnv1a64", hex64(fp.hash))
        .member("ok", fp.ok)
        .end_object();
  }
  w.end_array();
  w.end_object();
}

std::string RunManifest::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  write(w);
  return os.str();
}

void RunManifest::write_file(const std::string& path) const {
  std::ofstream out = open_output_file(path);
  out << to_json() << '\n';
  if (!out) throw std::runtime_error("cannot write manifest: " + path);
}

std::ofstream open_output_file(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path(), ec);
  if (fs::exists(p, ec)) {
    // First rotation takes "<path>.old"; later ones fall through to
    // ".old.1", ".old.2", ... — fs::rename would silently replace an
    // existing target, and a rotated artifact must never clobber an
    // earlier one.
    fs::path rotated = p.string() + ".old";
    for (unsigned n = 1; fs::exists(rotated, ec); ++n) {
      if (n > 10000)
        throw std::runtime_error("refusing to overwrite " + path +
                                 ": over 10000 rotated copies exist");
      rotated = p.string() + ".old." + std::to_string(n);
    }
    fs::rename(p, rotated, ec);
    if (ec) {
      throw std::runtime_error("refusing to overwrite " + path +
                               " (rotation to " + rotated.string() +
                               " failed: " + ec.message() + ")");
    }
    std::fprintf(stderr, "warning: %s existed; rotated to %s\n",
                 path.c_str(), rotated.string().c_str());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

}  // namespace litmus::obs
