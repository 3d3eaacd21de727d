// The persistence codec, one copy shared by snapshots and journals (their
// .cc files hold only the layouts): a whole-file read, a checksummed
// streaming file read, CRC-32, the magic + version prefix, the tagged Value
// codec and a pair of bounds-checked little-endian buffer codecs.
// PersistGolden pins the bytes it writes.
//
// Files are written through ByteWriter (one contiguous buffer, so the
// checksum covers exactly the bytes that hit disk) and read through
// ByteReader, whose reads never throw: an out-of-bounds access latches a
// failure flag and returns zeros/empties, and the caller checks ok() once
// at the end. A ByteReader reads a buffer, or streams a FileSource through
// a small window. Arrays of integers or of integer pairs move in bulk —
// when streaming, straight from the file into the caller's array; callers
// validate them after. The encoding is little-endian on any host, one
// integer lane at a time: a snapshot is a portable artifact, not a memory
// dump.

#ifndef RETRUST_PERSIST_IO_H_
#define RETRUST_PERSIST_IO_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/api/status.h"
#include "src/relational/value.h"

namespace retrust::persist {

/// Reads all of `path` with one sized read. `what` names the file's kind in
/// error messages ("snapshot", "journal"). kIoError when the file cannot be
/// opened or sized, or the read comes up short.
Result<std::string> ReadWholeFile(const std::string& path,
                                  std::string_view what);

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of `len` bytes,
/// continuing from `crc`, the CRC-32 of the bytes before them (0 for
/// none): Crc32(b, lb, Crc32(a, la)) is the CRC-32 of a followed by b.
/// On x86-64 CPUs with PCLMULQDQ, inputs of 64 bytes or more fold 16-byte
/// blocks by carry-less multiplication (checked once per process); the
/// tail, and every input elsewhere, takes a slicing-by-8 table loop. The
/// value is the same either way.
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

Status IoError(const std::string& message);

/// A file read front to back in pieces with pread, each piece folded into
/// a running CRC-32 as it lands, so bulk data can go straight to where it
/// belongs with no whole-file buffer. Reads stop at limit(): the start of
/// a checksum footer, or the end of the file.
class FileSource {
 public:
  /// Opens `path`; `what` names the file's kind in error messages, as in
  /// ReadWholeFile. kIoError when the file cannot be opened or is not a
  /// regular file.
  static Result<std::unique_ptr<FileSource>> Open(const std::string& path,
                                                  std::string_view what);
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;
  ~FileSource();

  size_t size() const { return size_; }
  size_t limit() const { return limit_; }
  /// Bytes left before limit().
  size_t remaining() const { return limit_ - offset_; }
  void set_limit(size_t limit) { limit_ = std::clamp(limit, offset_, size_); }

  /// Reads the next `len` bytes into `dst` and folds them into the running
  /// CRC, a cache-sized piece at a time. False, with the source failed for
  /// good, when fewer than `len` bytes remain or the read fails.
  bool Read(void* dst, size_t len);

  /// Reads what is left before limit() into the CRC, then the 4 bytes at
  /// limit() as a little-endian CRC-32: true iff that equals the CRC-32 of
  /// every byte before limit() and no read failed.
  bool ChecksumMatches();

 private:
  FileSource(int fd, size_t size) : fd_(fd), size_(size), limit_(size) {}

  int fd_;
  size_t size_;
  size_t limit_;
  size_t offset_ = 0;
  uint32_t crc_ = 0;
  bool failed_ = false;
};

/// Bytes of one integer lane of a bulk-array element: the element itself
/// when it is an integer, else one field of an (u, v) pair of equal-width
/// ids such as an edge. Each lane is stored little-endian on its own.
template <typename T>
constexpr size_t LaneBytes() {
  static_assert(std::is_trivially_copyable_v<T>);
  if constexpr (std::is_integral_v<T>) {
    return sizeof(T);
  } else {
    static_assert(sizeof(T) == 2 * sizeof(T::u) &&
                  sizeof(T::u) == sizeof(T::v));
    return sizeof(T::u);
  }
}

/// Append-only little-endian encoder over one growable buffer.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  /// Appends the contiguous range `v` lane by lane (LaneBytes).
  template <typename Range>
  void Array(const Range& v) {
    using T = std::ranges::range_value_t<Range>;
    constexpr size_t kLane = LaneBytes<T>();
    const auto* p = reinterpret_cast<const char*>(v.data());
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(p, v.size() * sizeof(T));
    } else {
      for (size_t i = 0; i < v.size() * sizeof(T); i += kLane) {
        Raw(p + i, kLane);
      }
    }
  }

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  void Raw(const void* v, size_t n) {
    // Serialize least-significant byte first on any host.
    const auto* p = static_cast<const unsigned char*>(v);
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(p), n);
    } else {
      for (size_t i = n; i-- > 0;) buf_.push_back(static_cast<char>(p[i]));
    }
  }

  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer, or over a
/// borrowed FileSource read in order up to its limit(). Reads past the end
/// latch failed() and return zero values; check ok() after the last read
/// instead of after each one.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}
  /// Streams `source` through a window of at least kWindow bytes.
  explicit ByteReader(FileSource* source) : source_(source) {}

  static constexpr size_t kWindow = size_t{64} << 10;

  bool ok() const { return !failed_; }
  size_t remaining() const {
    return data_.size() - pos_ + (source_ ? source_->remaining() : 0);
  }

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string Str() {
    uint64_t n = U64();
    // The length prefix itself may be garbage on corrupt input; refuse to
    // allocate more than what is actually left in the buffer.
    if (failed_ || n > remaining() || !Fill(static_cast<size_t>(n))) {
      failed_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, static_cast<size_t>(n)));
    pos_ += static_cast<size_t>(n);
    return s;
  }
  /// Fills `out` as ByteWriter::Array wrote it: on little-endian hosts
  /// with one bounds check and one memcpy, or, when streaming, with the
  /// window's unread bytes and one read from the file straight into place.
  /// A short input latches failed() and zero-fills the array.
  template <typename T>
  void Array(std::span<T> out) {
    constexpr size_t kLane = LaneBytes<T>();
    if (out.empty()) return;
    auto* p = reinterpret_cast<unsigned char*>(out.data());
    const size_t n = out.size_bytes();
    if constexpr (std::endian::native == std::endian::little) {
      const size_t buffered = data_.size() - pos_;
      if (source_ == nullptr || n <= buffered || failed_ || n > remaining()) {
        Raw(p, n);
        return;
      }
      std::copy(data_.begin() + pos_, data_.end(), p);
      pos_ += buffered;
      if (!source_->Read(p + buffered, n - buffered)) {
        failed_ = true;
        std::memset(p, 0, n);
      }
    } else {
      for (size_t i = 0; i < n; i += kLane) Raw(p + i, kLane);
    }
  }
  template <typename T>
  void Array(std::vector<T>* out) {
    Array(std::span<T>(*out));
  }

 private:
  /// Makes at least `n` unread bytes available in the window, reading on
  /// from the source; false when they are not there.
  bool Fill(size_t n) {
    const size_t buffered = data_.size() - pos_;
    if (buffered >= n) return true;
    if (source_ == nullptr || n - buffered > source_->remaining()) {
      return false;
    }
    const size_t more =
        std::min(std::max(n - buffered, kWindow), source_->remaining());
    std::vector<char> next(buffered + more);
    std::copy(data_.begin() + pos_, data_.end(), next.begin());
    if (!source_->Read(next.data() + buffered, more)) return false;
    window_.swap(next);
    data_ = std::string_view(window_.data(), window_.size());
    pos_ = 0;
    return true;
  }

  void Raw(void* v, size_t n) {
    if (failed_ || !Fill(n)) {
      failed_ = true;
      std::memset(v, 0, n);
      return;
    }
    auto* p = static_cast<unsigned char*>(v);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, data_.data() + pos_, n);
    } else {
      for (size_t i = 0; i < n; ++i) {
        p[n - 1 - i] = static_cast<unsigned char>(data_[pos_ + i]);
      }
    }
    pos_ += n;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
  FileSource* source_ = nullptr;
  std::vector<char> window_;  ///< what data_ views when streaming
};

/// Caps untrusted count fields: a corrupt length can at most name one unit
/// per remaining payload byte, so allocations stay proportional to the
/// actual file size instead of a 64-bit garbage value.
inline bool PlausibleCount(uint64_t count, const ByteReader& r) {
  return count <= r.remaining();
}

/// The tagged Value codec: a u8 tag (null, int, double, string, variable)
/// and the value's fields. ReadValue throws std::invalid_argument on an
/// unknown tag.
void WriteValue(ByteWriter* w, const Value& v);
Value ReadValue(ByteReader* r);

/// Bytes of the 8-byte magic + u32 format version every file starts with.
inline constexpr size_t kPrefixSize = 8 + sizeof(uint32_t);

void WritePrefix(ByteWriter* w, const char (&magic)[8], uint32_t version);

/// Checks the prefix of the file `path` holding `bytes`, whose kind `what`
/// names ("snapshot", "journal"). kIoError "'<path>' is not a retrust
/// <what>" when the file is shorter than `min_size` (at least kPrefixSize)
/// or its magic differs; kVersionMismatch for any other version. Readers
/// call it before any checksum, so a version bump is reported as such.
Status CheckPrefix(std::string_view bytes, const char (&magic)[8],
                   uint32_t version, size_t min_size, std::string_view what,
                   const std::string& path);

}  // namespace retrust::persist

#endif  // RETRUST_PERSIST_IO_H_
