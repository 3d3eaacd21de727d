#include "src/persist/io.h"

#include <array>
#include <filesystem>
#include <fstream>

namespace retrust::persist {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

Result<std::string> ReadWholeFile(const std::string& path,
                                  std::string_view what) {
  const std::string name = std::string(what) + " '" + path + "'";
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error(StatusCode::kIoError, "cannot open " + name);
  // file_size refuses what is not a regular file (a directory opens fine).
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::Error(StatusCode::kIoError, "cannot size " + name);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return Status::Error(StatusCode::kIoError, "read failure on " + name);
  }
  return bytes;
}

uint32_t Crc32(const void* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace retrust::persist
