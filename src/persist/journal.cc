#include "src/persist/journal.h"

#include <filesystem>
#include <utility>

#include "src/persist/io.h"

namespace retrust::persist {

namespace {

constexpr size_t kHeaderSize = 3 * sizeof(uint64_t);

/// Checks the prefix of journal `bytes` and reads the header after it.
Status ReadHeader(const std::string& path, const std::string& bytes,
                  JournalHeader* header) {
  Status prefix = CheckPrefix(bytes, kJournalMagic, kJournalFormatVersion,
                              kPrefixSize + kHeaderSize, "journal", path);
  if (!prefix.ok()) return prefix;
  ByteReader r(std::string_view(bytes).substr(kPrefixSize));
  header->fingerprint = r.U64();
  header->base_stamp = r.U64();
  header->base_version = r.U64();
  return Status::Ok();
}

/// Walks the records after the header. On success fills `payloads` with the
/// complete records' payload bytes and reports whether a torn tail was
/// skipped; `*end` is the offset just past the last complete record.
Status ScanRecords(const std::string& path, const std::string& bytes,
                   std::vector<std::string>* payloads, bool* torn_tail,
                   size_t* end) {
  size_t pos = kPrefixSize + kHeaderSize;
  *torn_tail = false;
  while (pos < bytes.size()) {
    const size_t left = bytes.size() - pos;
    if (left < sizeof(uint32_t)) {
      *torn_tail = true;
      break;
    }
    ByteReader len_reader(std::string_view(bytes).substr(pos));
    const uint64_t len = len_reader.U32();
    if (left < sizeof(uint32_t) + len + sizeof(uint32_t)) {
      // The record's frame extends past EOF: a torn append, not corruption.
      *torn_tail = true;
      break;
    }
    const char* payload = bytes.data() + pos + sizeof(uint32_t);
    ByteReader crc_reader(std::string_view(bytes).substr(
        pos + sizeof(uint32_t) + static_cast<size_t>(len)));
    if (crc_reader.U32() != Crc32(payload, static_cast<size_t>(len))) {
      return IoError("journal '" + path + "' record " +
                     std::to_string(payloads->size()) +
                     " failed its checksum");
    }
    payloads->emplace_back(payload, static_cast<size_t>(len));
    pos += sizeof(uint32_t) + static_cast<size_t>(len) + sizeof(uint32_t);
  }
  *end = pos;
  return Status::Ok();
}

}  // namespace

std::string EncodeDeltaBatch(const DeltaBatch& batch) {
  ByteWriter w;
  w.U64(batch.inserts.size());
  for (const Tuple& t : batch.inserts) {
    w.U64(t.size());
    for (const Value& v : t) WriteValue(&w, v);
  }
  w.U64(batch.updates.size());
  for (const CellUpdate& u : batch.updates) {
    w.I32(u.tuple);
    w.I32(u.attr);
    WriteValue(&w, u.value);
  }
  w.U64(batch.deletes.size());
  w.Array(batch.deletes);
  return w.buffer();
}

Result<DeltaBatch> DecodeDeltaBatch(const std::string& payload) {
  ByteReader r{std::string_view(payload)};
  DeltaBatch batch;
  try {
    const uint64_t num_inserts = r.U64();
    if (!PlausibleCount(num_inserts, r)) {
      return IoError("delta record has an implausible insert count");
    }
    batch.inserts.reserve(static_cast<size_t>(num_inserts));
    for (uint64_t i = 0; i < num_inserts; ++i) {
      const uint64_t arity = r.U64();
      if (!PlausibleCount(arity, r)) {
        return IoError("delta record has an implausible tuple arity");
      }
      Tuple t;
      t.reserve(static_cast<size_t>(arity));
      for (uint64_t a = 0; a < arity; ++a) t.push_back(ReadValue(&r));
      batch.inserts.push_back(std::move(t));
    }
    const uint64_t num_updates = r.U64();
    if (!PlausibleCount(num_updates, r)) {
      return IoError("delta record has an implausible update count");
    }
    batch.updates.reserve(static_cast<size_t>(num_updates));
    for (uint64_t i = 0; i < num_updates; ++i) {
      CellUpdate u;
      u.tuple = r.I32();
      u.attr = r.I32();
      u.value = ReadValue(&r);
      batch.updates.push_back(std::move(u));
    }
    const uint64_t num_deletes = r.U64();
    if (!PlausibleCount(num_deletes, r)) {
      return IoError("delta record has an implausible delete count");
    }
    batch.deletes.resize(static_cast<size_t>(num_deletes));
    r.Array(&batch.deletes);
  } catch (const std::exception& e) {
    return IoError(std::string("delta record is corrupt: ") + e.what());
  }
  if (!r.ok() || r.remaining() != 0) {
    return IoError("delta record has the wrong length");
  }
  return batch;
}

Result<JournalContents> ReadJournalFile(const std::string& path) {
  auto bytes = ReadWholeFile(path, "journal");
  if (!bytes.ok()) return bytes.status();

  JournalContents contents;
  Status prefix = ReadHeader(path, *bytes, &contents.header);
  if (!prefix.ok()) return prefix;

  std::vector<std::string> payloads;
  size_t end = 0;
  Status scan = ScanRecords(path, *bytes, &payloads, &contents.torn_tail, &end);
  if (!scan.ok()) return scan;

  contents.batches.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    auto batch = DecodeDeltaBatch(payload);
    if (!batch.ok()) {
      return Status::Error(batch.status().code(),
                           "journal '" + path + "' record " +
                               std::to_string(contents.batches.size()) + ": " +
                               batch.status().message());
    }
    contents.batches.push_back(std::move(*batch));
  }
  return contents;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Create(
    const std::string& path, const JournalHeader& header) {
  ByteWriter w;
  WritePrefix(&w, kJournalMagic, kJournalFormatVersion);
  w.U64(header.fingerprint);
  w.U64(header.base_stamp);
  w.U64(header.base_version);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return IoError("cannot create journal '" + path + "'");
  out.write(w.buffer().data(), static_cast<std::streamsize>(w.size()));
  out.flush();
  if (!out) return IoError("short write to journal '" + path + "'");
  return std::unique_ptr<JournalWriter>(
      new JournalWriter(path, header, 0, std::move(out)));
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Append(
    const std::string& path, uint64_t expected_fingerprint) {
  auto bytes = ReadWholeFile(path, "journal");
  if (!bytes.ok()) return bytes.status();

  JournalHeader header;
  Status prefix = ReadHeader(path, *bytes, &header);
  if (!prefix.ok()) return prefix;
  if (header.fingerprint != expected_fingerprint) {
    return Status::Error(
        StatusCode::kSchemaMismatch,
        "journal '" + path +
            "' was written under a different Σ/weights configuration");
  }

  std::vector<std::string> payloads;
  bool torn_tail = false;
  size_t end = 0;
  Status scan = ScanRecords(path, *bytes, &payloads, &torn_tail, &end);
  if (!scan.ok()) return scan;
  if (torn_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, end, ec);
    if (ec) {
      return IoError("cannot truncate torn record in journal '" + path +
                     "': " + ec.message());
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return IoError("cannot open journal '" + path + "' for append");
  return std::unique_ptr<JournalWriter>(new JournalWriter(
      path, header, payloads.size(), std::move(out)));
}

Status JournalWriter::AppendBatch(const DeltaBatch& batch) {
  const std::string payload = EncodeDeltaBatch(batch);
  ByteWriter record;
  record.U32(static_cast<uint32_t>(payload.size()));
  out_.write(record.buffer().data(),
             static_cast<std::streamsize>(record.size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  ByteWriter crc;
  crc.U32(Crc32(payload.data(), payload.size()));
  out_.write(crc.buffer().data(), static_cast<std::streamsize>(crc.size()));
  out_.flush();
  if (!out_) {
    return IoError("short write to journal '" + path_ + "'");
  }
  ++num_records_;
  return Status::Ok();
}

}  // namespace retrust::persist
