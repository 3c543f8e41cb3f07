// Tests for run provenance: streaming fingerprints, manifest JSON
// round-trip through the parser, and the non-clobbering output opener.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/manifest.h"

namespace litmus::obs {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("litmus_manifest_test_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

TEST(ManifestTest, FingerprintIsStableAndSensitiveToContent) {
  TempDir dir;
  write_text(dir.file("a.csv"), "element,kpi,value\n1,2,3\n");
  const InputFingerprint first = fingerprint_file(dir.file("a.csv"));
  const InputFingerprint again = fingerprint_file(dir.file("a.csv"));
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.bytes, 24u);
  EXPECT_EQ(first.hash, again.hash);

  write_text(dir.file("a.csv"), "element,kpi,value\n1,2,4\n");
  const InputFingerprint changed = fingerprint_file(dir.file("a.csv"));
  EXPECT_NE(first.hash, changed.hash);  // one byte flips the fingerprint

  const InputFingerprint missing = fingerprint_file(dir.file("nope.csv"));
  EXPECT_FALSE(missing.ok);
}

TEST(ManifestTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  std::istringstream a("a");
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cULL);
  std::istringstream foobar("foobar");
  std::uint64_t bytes = 0;
  EXPECT_EQ(fnv1a64(foobar, &bytes), 0x85944171f73967e8ULL);
  EXPECT_EQ(bytes, 6u);
  std::istringstream empty("");
  EXPECT_EQ(fnv1a64(empty), 0xcbf29ce484222325ULL);  // offset basis
}

TEST(ManifestTest, JsonRoundTripsThroughTheParser) {
  TempDir dir;
  write_text(dir.file("in.csv"), "x\n");
  RunManifest m;
  m.tool = "unit_test";
  m.threads = 4;
  m.seed = 20130209;
  m.started_at_utc = "2026-08-06T00:00:00Z";
  m.add_config("--kpi", "voice_retainability");
  m.add_config("--seed", "20130209");
  m.inputs.push_back(fingerprint_file(dir.file("in.csv")));

  std::string error;
  const auto v = parse_json(m.to_json(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->member_number("schema", -1), 1.0);
  EXPECT_EQ(v->member_string("tool", ""), "unit_test");
  EXPECT_EQ(v->member_string("version", ""), kLitmusVersion);
  EXPECT_EQ(v->member_string("rng_scheme", ""), kRngScheme);
  EXPECT_EQ(v->member_number("threads", -1), 4.0);
  // Seed must survive as an exact integer, not a double-rounded one.
  EXPECT_EQ(v->member_number("seed", -1), 20130209.0);
  const JsonValue* config = v->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->member_string("--kpi", ""), "voice_retainability");
  const JsonValue* inputs = v->find("inputs");
  ASSERT_NE(inputs, nullptr);
  ASSERT_TRUE(inputs->is_array());
  ASSERT_EQ(inputs->array.size(), 1u);
  const JsonValue& fp = inputs->array[0];
  EXPECT_EQ(fp.member_number("bytes", -1), 2.0);
  EXPECT_EQ(fp.member_string("fnv1a64", "").size(), 16u);
  const JsonValue* ok = fp.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->boolean);
}

TEST(ManifestTest, OpenOutputFileCreatesParentsAndRotates) {
  TempDir dir;
  const std::string path = dir.file("deep/nested/out.json");
  {
    std::ofstream out = open_output_file(path);  // parents do not exist yet
    out << "first";
  }
  EXPECT_TRUE(fs::exists(path));
  {
    std::ofstream out = open_output_file(path);  // must rotate, not clobber
    out << "second";
  }
  std::ifstream rotated(path + ".old");
  std::string content;
  rotated >> content;
  EXPECT_EQ(content, "first");
  std::ifstream current(path);
  current >> content;
  EXPECT_EQ(content, "second");
}

TEST(ManifestTest, RepeatedRotationNeverClobbersEarlierRotations) {
  // Regression: the second rotation used to overwrite <path>.old, losing
  // the first run's output. Now each rotation picks the first free
  // .old / .old.N slot.
  TempDir dir;
  const std::string path = dir.file("out.json");
  const char* generations[] = {"first", "second", "third", "fourth"};
  for (const char* text : generations) {
    std::ofstream out = open_output_file(path);
    out << text;
  }
  auto read = [](const std::string& p) {
    std::ifstream in(p);
    std::string s;
    in >> s;
    return s;
  };
  // Every generation survives, each in its own slot, oldest in .old.
  EXPECT_EQ(read(path + ".old"), "first");
  EXPECT_EQ(read(path + ".old.1"), "second");
  EXPECT_EQ(read(path + ".old.2"), "third");
  EXPECT_EQ(read(path), "fourth");
  EXPECT_FALSE(fs::exists(path + ".old.3"));
}

TEST(ManifestTest, WriteFileProducesParsableStandaloneManifest) {
  TempDir dir;
  RunManifest m;
  m.tool = "unit_test";
  m.write_file(dir.file("run_manifest.json"));
  std::ifstream in(dir.file("run_manifest.json"));
  std::ostringstream os;
  os << in.rdbuf();
  std::string error;
  const auto v = parse_json(os.str(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->member_string("tool", ""), "unit_test");
}

TEST(ManifestTest, BuildFlagsStringIsShortAndStable) {
  const std::string flags = build_flags_string();
  EXPECT_NE(flags.find("obs="), std::string::npos);
  EXPECT_EQ(flags, build_flags_string());
}

}  // namespace
}  // namespace litmus::obs
