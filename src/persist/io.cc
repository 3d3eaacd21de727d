#include "src/persist/io.h"

#include <array>
#include <filesystem>
#include <fstream>

namespace retrust::persist {

namespace {

/// Slicing-by-8 tables: table 0 is the bytewise table of the reflected
/// polynomial 0xedb88320; table k advances table 0's entry over k more
/// zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
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
  static const CrcTables kT = MakeCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xffffffffu;
  // Eight bytes per step: the first four fold into the running CRC, and
  // each byte's table accounts for the bytes that follow it.
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kT[7][lo & 0xffu] ^ kT[6][(lo >> 8) & 0xffu] ^
        kT[5][(lo >> 16) & 0xffu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xffu] ^
        kT[2][(hi >> 8) & 0xffu] ^ kT[1][(hi >> 16) & 0xffu] ^ kT[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = kT[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace retrust::persist
