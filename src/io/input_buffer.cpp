#include "io/input_buffer.h"

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define LITMUS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define LITMUS_HAVE_MMAP 0
#endif

namespace litmus::io {
namespace {

void reject_directory(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec))
    throw std::runtime_error("cannot open " + path + ": is a directory");
}

}  // namespace

InputBuffer::InputBuffer(InputBuffer&& other) noexcept {
  *this = std::move(other);
}

InputBuffer& InputBuffer::operator=(InputBuffer&& other) noexcept {
  if (this == &other) return *this;
#if LITMUS_HAVE_MMAP
  if (map_) ::munmap(map_, map_len_);
#endif
  map_ = other.map_;
  map_len_ = other.map_len_;
  owned_ = std::move(other.owned_);
  view_ = map_ ? std::string_view(static_cast<const char*>(map_), map_len_)
               : std::string_view(owned_);
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.view_ = {};
  return *this;
}

InputBuffer::~InputBuffer() {
#if LITMUS_HAVE_MMAP
  if (map_) ::munmap(map_, map_len_);
#endif
}

InputBuffer InputBuffer::from_string(std::string data) {
  InputBuffer buf;
  buf.owned_ = std::move(data);
  buf.view_ = buf.owned_;
  return buf;
}

InputBuffer InputBuffer::map_impl(const std::string& path, bool shared) {
  reject_directory(path);
#if LITMUS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const auto len = static_cast<std::size_t>(st.st_size);
      if (len == 0) {
        ::close(fd);
        return InputBuffer{};
      }
      void* p = ::mmap(nullptr, len, PROT_READ,
                       shared ? MAP_SHARED : MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (p != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
        if (!shared) ::madvise(p, len, MADV_SEQUENTIAL);
#endif
        InputBuffer buf;
        buf.map_ = p;
        buf.map_len_ = len;
        buf.view_ = std::string_view(static_cast<const char*>(p), len);
        return buf;
      }
      // mmap refused (e.g. special filesystem): fall through to read().
    } else {
      ::close(fd);
    }
  } else {
    throw std::runtime_error("cannot open " + path);
  }
#else
  (void)shared;
#endif
  std::ifstream in = open_input_stream(path);
  std::ostringstream os;
  os << in.rdbuf();
  return from_string(std::move(os).str());
}

InputBuffer InputBuffer::map_file(const std::string& path) {
  return map_impl(path, /*shared=*/false);
}

InputBuffer InputBuffer::map_file_shared(const std::string& path) {
  return map_impl(path, /*shared=*/true);
}

std::ifstream open_input_stream(const std::string& path) {
  reject_directory(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return in;
}

}  // namespace litmus::io
