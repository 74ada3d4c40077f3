// ByteSource: mmap-backed and owned byte buffers behind the zero-copy
// trace loader — mapping real files, falling back for non-regular ones,
// and alignment guarantees.
#include "common/byte_source.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace wcp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(f.good());
}

std::string as_string(const ByteSource& src) {
  return std::string(reinterpret_cast<const char*>(src.bytes().data()),
                     src.size());
}

TEST(ByteSource, MapFileServesExactBytes) {
  const std::string path = temp_path("byte_source_map.bin");
  std::string data = "mapped-bytes";
  for (int i = 0; i < 1000; ++i) data += static_cast<char>(i & 0xff);
  write_file(path, data);

  const auto src = ByteSource::map_file(path);
  ASSERT_NE(src, nullptr);
  EXPECT_TRUE(src->mapped());
  EXPECT_EQ(src->name(), path);
  EXPECT_EQ(as_string(*src), data);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(src->bytes().data()) % 8, 0u);

  // Hints must be harmless no-ops as far as the data is concerned.
  src->advise_sequential();
  src->advise_random();
  src->drop_resident();
  EXPECT_EQ(as_string(*src), data);
  std::remove(path.c_str());
}

TEST(ByteSource, MapFileOutlivesUnlink) {
  const std::string path = temp_path("byte_source_unlink.bin");
  write_file(path, "still-here-after-unlink");
  const auto src = ByteSource::map_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(as_string(*src), "still-here-after-unlink");
}

TEST(ByteSource, MapFileFallsBackForNonRegularFiles) {
  // /dev/null is not a mappable regular file; map_file must degrade to the
  // buffered reader instead of failing.
  const auto src = ByteSource::map_file("/dev/null");
  ASSERT_NE(src, nullptr);
  EXPECT_FALSE(src->mapped());
  EXPECT_EQ(src->size(), 0u);
}

TEST(ByteSource, MapFileFallsBackForEmptyFiles) {
  const std::string path = temp_path("byte_source_empty.bin");
  write_file(path, "");
  const auto src = ByteSource::map_file(path);
  ASSERT_NE(src, nullptr);
  EXPECT_FALSE(src->mapped());  // zero-length mappings are not a thing
  EXPECT_EQ(src->size(), 0u);
  std::remove(path.c_str());
}

TEST(ByteSource, MapFileThrowsOnMissingFile) {
  try {
    (void)ByteSource::map_file(temp_path("no_such_byte_source_file"));
    FAIL() << "expected an error for a missing file";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
        << e.what();
  }
}

TEST(ByteSource, ReadStreamHandlesChunkBoundariesAndAlignment) {
  // Larger than the reader's 1 MiB chunk so the resize path is exercised.
  std::string data;
  data.reserve(3u << 20);
  for (std::size_t i = 0; i < (3u << 20) + 13; ++i)
    data += static_cast<char>((i * 31 + 7) & 0xff);
  std::istringstream is(data);
  const auto src = ByteSource::read_stream(is, "big");
  EXPECT_FALSE(src->mapped());
  EXPECT_EQ(src->name(), "big");
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(src->bytes().data()) % 8, 0u);
  EXPECT_EQ(as_string(*src), data);

  std::istringstream empty("");
  EXPECT_EQ(ByteSource::read_stream(empty)->size(), 0u);
}

TEST(ByteSource, FromBytesCopiesIntoAlignedStorage) {
  const std::string data = "0123456789abcdef!";
  const auto src = ByteSource::from_bytes(data);
  EXPECT_FALSE(src->mapped());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(src->bytes().data()) % 8, 0u);
  EXPECT_EQ(as_string(*src), data);
  EXPECT_EQ(ByteSource::from_bytes("")->size(), 0u);
}

}  // namespace
}  // namespace wcp
