// Read-only access to input files: the byte view the CSV parse and the
// mapped snapshot store read, and the stream the istream loaders read.
// Both reject a directory by name: a stream opened on one reads as an
// empty file, which would turn a mistyped path into a run over no data.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>

namespace litmus::io {

/// Read-only view of an input file: mmap'd when the platform supports it,
/// otherwise read whole into an owned buffer (pipes and other non-regular
/// files take that path). Move-only RAII.
class InputBuffer {
 public:
  InputBuffer() = default;
  InputBuffer(InputBuffer&& other) noexcept;
  InputBuffer& operator=(InputBuffer&& other) noexcept;
  InputBuffer(const InputBuffer&) = delete;
  InputBuffer& operator=(const InputBuffer&) = delete;
  ~InputBuffer();

  /// Maps (or reads) `path`; throws std::runtime_error naming the path
  /// when it is unreadable or a directory.
  static InputBuffer map_file(const std::string& path);

  /// As map_file, but with MAP_SHARED so every process mapping the same
  /// file shares physical pages (the mapped columnar store's mode; for a
  /// PROT_READ mapping the semantics are otherwise identical). Falls back
  /// to a heap read where mmap is unavailable.
  static InputBuffer map_file_shared(const std::string& path);

  /// Wraps in-memory data (tests, synthetic corpora).
  static InputBuffer from_string(std::string data);

  std::string_view view() const noexcept { return view_; }
  std::size_t size() const noexcept { return view_.size(); }
  bool mapped() const noexcept { return map_ != nullptr; }

 private:
  static InputBuffer map_impl(const std::string& path, bool shared);

  void* map_ = nullptr;       // non-null iff mmap'd
  std::size_t map_len_ = 0;
  std::string owned_;         // fallback / from_string storage
  std::string_view view_;
};

/// Opens `path` as an input stream; throws std::runtime_error naming the
/// path when it cannot be opened or is a directory.
std::ifstream open_input_stream(const std::string& path);

}  // namespace litmus::io
