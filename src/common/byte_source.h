// Shared-ownership byte buffers for zero-copy file loading.
//
// A ByteSource is an immutable, contiguous run of bytes whose storage is
// either a live mmap of a regular file (MappedFile) or an owned, 8-byte-
// aligned heap buffer (OwnedBytes). Consumers parse straight out of
// bytes() and keep the shared_ptr alive for as long as any view into the
// buffer exists — the columnar trace store does exactly that, pointing its
// column spans into the mapping so a load never copies the file.
//
// map_file() prefers mmap and degrades gracefully: pipes, sockets, empty
// files, and platforms without mmap all fall back to a buffered read into
// an OwnedBytes. Callers never need to care which one they got, but can
// ask (mapped()) and can pass access-pattern hints (advise_*) that turn
// into madvise on a real mapping and into no-ops everywhere else.
//
// Alignment guarantee: bytes().data() is always at least 8-byte aligned
// (page-aligned for mappings, a std::uint64_t buffer for owned bytes), so
// a file format whose sections are 8-byte aligned can be reinterpreted as
// typed little-endian columns in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wcp {

class ByteSource {
 public:
  virtual ~ByteSource() = default;
  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;

  [[nodiscard]] std::span<const std::byte> bytes() const { return bytes_; }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  /// True when the bytes alias a live file mapping (nothing was copied).
  [[nodiscard]] virtual bool mapped() const = 0;
  /// Where the bytes came from, for error messages ("<stream>" or a path).
  [[nodiscard]] const std::string& name() const { return name_; }

  // Access-pattern hints; madvise on a mapping, no-ops on owned bytes.
  virtual void advise_sequential() const {}
  virtual void advise_random() const {}
  /// Drop the resident pages of a mapping (madvise MADV_DONTNEED). The
  /// bytes stay valid — clean file-backed pages refault from the page
  /// cache on next touch — but the process's resident set shrinks back to
  /// O(1) in the file size. No-op on owned bytes (the heap can't be
  /// un-paid).
  virtual void drop_resident() const {}

  /// Maps `path` read-only; falls back to a buffered read when the file is
  /// not a regular mappable file (pipe, /dev/stdin, zero length) or mmap is
  /// unavailable. Throws std::invalid_argument when the file cannot be
  /// opened at all.
  static std::shared_ptr<const ByteSource> map_file(const std::string& path);

  /// Reads a (possibly non-seekable) stream to exhaustion into an owned
  /// aligned buffer.
  static std::shared_ptr<const ByteSource> read_stream(
      std::istream& is, std::string name = "<stream>");

  /// Copies `data` into an owned aligned buffer (tests, in-memory blobs).
  static std::shared_ptr<const ByteSource> from_bytes(
      std::string_view data, std::string name = "<memory>");

 protected:
  ByteSource() = default;

  std::span<const std::byte> bytes_;
  std::string name_;
};

/// ByteSource backed by an owned heap buffer of std::uint64_t words, so the
/// data pointer is 8-byte aligned like a mapping's.
class OwnedBytes final : public ByteSource {
 public:
  OwnedBytes(std::vector<std::uint64_t> words, std::size_t byte_size,
             std::string name);

  [[nodiscard]] bool mapped() const override { return false; }

 private:
  std::vector<std::uint64_t> words_;
};

/// ByteSource backed by a read-only private mmap of a regular file.
class MappedFile final : public ByteSource {
 public:
  ~MappedFile() override;

  [[nodiscard]] bool mapped() const override { return true; }
  void advise_sequential() const override;
  void advise_random() const override;
  void drop_resident() const override;

  /// nullptr when the path is not a mappable regular file (callers fall
  /// back to a buffered read); throws std::invalid_argument when the file
  /// cannot be opened.
  static std::shared_ptr<const MappedFile> try_map(const std::string& path);

 private:
  MappedFile(void* addr, std::size_t len, std::string name);

  void* addr_ = nullptr;
  std::size_t len_ = 0;
};

}  // namespace wcp
