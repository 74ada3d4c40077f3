#include "common/byte_source.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define WCP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define WCP_HAVE_MMAP 0
#endif

namespace wcp {

namespace {

constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

std::size_t words_for(std::size_t byte_size) {
  return (byte_size + kWordBytes - 1) / kWordBytes;
}

}  // namespace

OwnedBytes::OwnedBytes(std::vector<std::uint64_t> words, std::size_t byte_size,
                       std::string name)
    : words_(std::move(words)) {
  WCP_CHECK_MSG(byte_size <= words_.size() * kWordBytes,
                "OwnedBytes size " << byte_size << " exceeds buffer of "
                                   << words_.size() << " words");
  bytes_ = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(words_.data()), byte_size);
  name_ = std::move(name);
}

MappedFile::MappedFile(void* addr, std::size_t len, std::string name)
    : addr_(addr), len_(len) {
  bytes_ = std::span<const std::byte>(static_cast<const std::byte*>(addr_),
                                      len_);
  name_ = std::move(name);
}

MappedFile::~MappedFile() {
#if WCP_HAVE_MMAP
  if (addr_ != nullptr) ::munmap(addr_, len_);
#endif
}

#if WCP_HAVE_MMAP
void MappedFile::advise_sequential() const {
  ::madvise(addr_, len_, MADV_SEQUENTIAL);
}

void MappedFile::advise_random() const { ::madvise(addr_, len_, MADV_RANDOM); }

void MappedFile::drop_resident() const {
  ::madvise(addr_, len_, MADV_DONTNEED);
}
#else
void MappedFile::advise_sequential() const {}
void MappedFile::advise_random() const {}
void MappedFile::drop_resident() const {}
#endif

std::shared_ptr<const MappedFile> MappedFile::try_map(const std::string& path) {
#if WCP_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  WCP_REQUIRE(fd >= 0, "cannot open '" << path << "' for reading");
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
    ::close(fd);
    return nullptr;  // pipe, device, directory, or empty: not mappable
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (addr == MAP_FAILED) return nullptr;
  return std::shared_ptr<const MappedFile>(new MappedFile(addr, len, path));
#else
  (void)path;
  return nullptr;
#endif
}

std::shared_ptr<const ByteSource> ByteSource::map_file(
    const std::string& path) {
#if WCP_HAVE_MMAP
  if (auto mapped = MappedFile::try_map(path)) return mapped;
#endif
  std::ifstream f(path, std::ios::binary);
  WCP_REQUIRE(f.good(), "cannot open '" << path << "' for reading");
  return read_stream(f, path);
}

std::shared_ptr<const ByteSource> ByteSource::read_stream(std::istream& is,
                                                          std::string name) {
  std::vector<std::uint64_t> words;
  std::size_t byte_size = 0;
  constexpr std::size_t kChunkBytes = 1 << 20;
  for (;;) {
    if (words.size() * kWordBytes < byte_size + kChunkBytes) {
      words.resize(words_for(byte_size + kChunkBytes));
    }
    is.read(reinterpret_cast<char*>(words.data()) + byte_size,
            static_cast<std::streamsize>(kChunkBytes));
    byte_size += static_cast<std::size_t>(is.gcount());
    if (is.gcount() == 0 || !is.good()) break;
  }
  return std::make_shared<const OwnedBytes>(std::move(words), byte_size,
                                            std::move(name));
}

std::shared_ptr<const ByteSource> ByteSource::from_bytes(std::string_view data,
                                                         std::string name) {
  std::vector<std::uint64_t> words(words_for(data.size()), 0);
  if (!data.empty()) std::memcpy(words.data(), data.data(), data.size());
  return std::make_shared<const OwnedBytes>(std::move(words), data.size(),
                                            std::move(name));
}

}  // namespace wcp
