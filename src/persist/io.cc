#include "src/persist/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

constexpr uint8_t kValueNull = 0;
constexpr uint8_t kValueInt = 1;
constexpr uint8_t kValueDouble = 2;
constexpr uint8_t kValueString = 3;
constexpr uint8_t kValueVariable = 4;

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
#define RETRUST_CLMUL __attribute__((target("pclmul,sse4.1")))

RETRUST_CLMUL __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: x.hi·k.hi ^ x.lo·k.lo ^ next.
RETRUST_CLMUL __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

/// Advances the running (pre-inverted) CRC `c` over `len` bytes, len a
/// multiple of 16 and at least 64, by carry-less multiplication: four
/// 128-bit lanes fold 64 bytes per step, the lanes fold into one, 16-byte
/// blocks fold into that, and a Barrett reduction takes the 128-bit
/// remainder to 32 bits. The constants are x^k mod P for the reflected
/// polynomial 0xedb88320 (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009): k1/k2 fold
/// across 512 bits, k3/k4 across 128, k5 from 96 to 64 bits, and the last
/// pair is P and the Barrett quotient μ.
RETRUST_CLMUL uint32_t FoldCrc32(uint32_t c, const unsigned char* p,
                                 size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 96 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool HasClmul() {
  static const bool kHas =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return kHas;
}
#undef RETRUST_CLMUL
#endif

}  // namespace

Result<std::string> ReadWholeFile(const std::string& path,
                                  std::string_view what) {
  const std::string name = std::string(what) + " '" + path + "'";
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open " + name);
  // file_size refuses what is not a regular file (a directory opens fine).
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return IoError("cannot size " + name);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return IoError("read failure on " + name);
  }
  return bytes;
}

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  static const CrcTables kT = MakeCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xffffffffu;
#if defined(__x86_64__)
  if (len >= 64 && HasClmul()) {
    const size_t folded = len & ~size_t{15};
    c = FoldCrc32(c, p, folded);
    p += folded;
    len -= folded;
  }
#endif
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

Status IoError(const std::string& message) {
  return Status::Error(StatusCode::kIoError, message);
}

Result<std::unique_ptr<FileSource>> FileSource::Open(const std::string& path,
                                                     std::string_view what) {
  const std::string name = std::string(what) + " '" + path + "'";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open " + name);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return IoError("cannot size " + name);
  }
  return std::unique_ptr<FileSource>(
      new FileSource(fd, static_cast<size_t>(st.st_size)));
}

FileSource::~FileSource() { ::close(fd_); }

namespace {

/// pread of exactly `len` bytes at `offset`.
bool PreadFully(int fd, char* dst, size_t len, size_t offset) {
  for (size_t done = 0; done < len;) {
    const ssize_t got =
        ::pread(fd, dst + done, len - done, static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    done += static_cast<size_t>(got);
  }
  return true;
}

}  // namespace

bool FileSource::Read(void* dst, size_t len) {
  if (failed_ || len > remaining()) {
    failed_ = true;
    return false;
  }
  // Each piece is checksummed while it is still in cache.
  constexpr size_t kPiece = size_t{256} << 10;
  auto* p = static_cast<char*>(dst);
  for (size_t done = 0; done < len;) {
    const size_t piece = std::min(kPiece, len - done);
    if (!PreadFully(fd_, p + done, piece, offset_)) {
      failed_ = true;
      return false;
    }
    crc_ = Crc32(p + done, piece, crc_);
    offset_ += piece;
    done += piece;
  }
  return true;
}

bool FileSource::ChecksumMatches() {
  std::vector<char> rest(std::min(remaining(), ByteReader::kWindow));
  while (remaining() > 0) {
    if (!Read(rest.data(), std::min(remaining(), rest.size()))) return false;
  }
  const uint32_t crc = crc_;
  unsigned char footer[sizeof(uint32_t)];
  set_limit(limit_ + sizeof footer);
  return Read(footer, sizeof footer) && LoadLe32(footer) == crc;
}

void WriteValue(ByteWriter* w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      w->U8(kValueNull);
      break;
    case Value::Kind::kInt:
      w->U8(kValueInt);
      w->I64(v.AsInt());
      break;
    case Value::Kind::kDouble:
      w->U8(kValueDouble);
      w->F64(v.AsDouble());
      break;
    case Value::Kind::kString:
      w->U8(kValueString);
      w->Str(v.AsString());
      break;
    case Value::Kind::kVariable: {
      VarRef var = v.AsVariable();
      w->U8(kValueVariable);
      w->I32(var.attr);
      w->I32(var.index);
      break;
    }
  }
}

Value ReadValue(ByteReader* r) {
  switch (r->U8()) {
    case kValueNull:
      return Value::Null();
    case kValueInt:
      return Value(r->I64());
    case kValueDouble:
      return Value(r->F64());
    case kValueString:
      return Value(r->Str());
    case kValueVariable: {
      AttrId attr = r->I32();
      int32_t index = r->I32();
      return Value::Variable(attr, index);
    }
    default:
      throw std::invalid_argument("unknown value tag");
  }
}

void WritePrefix(ByteWriter* w, const char (&magic)[8], uint32_t version) {
  for (char c : magic) w->U8(static_cast<uint8_t>(c));
  w->U32(version);
}

Status CheckPrefix(std::string_view bytes, const char (&magic)[8],
                   uint32_t version, size_t min_size, std::string_view what,
                   const std::string& path) {
  if (bytes.size() < min_size ||
      std::memcmp(bytes.data(), magic, sizeof(magic)) != 0) {
    return IoError("'" + path + "' is not a retrust " + std::string(what));
  }
  ByteReader r(bytes.substr(sizeof(magic)));
  const uint32_t found = r.U32();
  if (found != version) {
    return Status::Error(StatusCode::kVersionMismatch,
                         std::string(what) + " '" + path +
                             "' has format version " + std::to_string(found) +
                             "; this build speaks version " +
                             std::to_string(version));
  }
  return Status::Ok();
}

}  // namespace retrust::persist
