// Versioned, checksummed on-disk snapshots of a warm (Σ, I) context
// bundle — the persistence subsystem's core artifact (DESIGN.md "Snapshot
// format & warm restart").
//
// A snapshot serializes everything a retrust::Session needs to answer
// requests WITHOUT re-running the O(n²) conflict-graph/difference-set
// build: the dictionary-encoded instance (with both fresh-variable
// counters), Σ, the difference-set index, and the cover memo's cached
// values. Loading is a linear read plus cheap reconstructions (dictionary
// indexes, and the violation table, built from Σ and the index exactly as
// a fresh context builds it) — the expensive pairwise phase is skipped
// entirely, and a restored session's answers are bit-identical to a
// from-scratch build at any thread count.
//
// File layout (all integers little-endian):
//
//   [ 0..8)   magic "RTSNAPSH"
//   [ 8..12)  u32 format version (kSnapshotFormatVersion)
//   [12..N-4) payload (see snapshot.cc for the field order)
//   [N-4..N)  u32 CRC-32 over bytes [0, N-4)
//
// Error mapping: not-a-snapshot / truncation / checksum failure → kIoError;
// an unsupported format version → kVersionMismatch (the magic and version
// are checked before the checksum, so a version bump is reported as such
// even though it also changes the CRC input). Fingerprint policy is the
// CALLER's: ReadSnapshotFile returns the stored fingerprint and
// Session::OpenSnapshot compares it against the caller's configuration
// (mismatch → kSchemaMismatch).
//
// The fingerprint deliberately excludes the thread count (unlike the
// Session context-cache key): a snapshot saved on an 8-core box must open
// on a 1-core box — bit-identity across thread counts is a library-wide
// invariant, so the thread count is an execution detail, not identity.

#ifndef RETRUST_PERSIST_SNAPSHOT_H_
#define RETRUST_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/status.h"
#include "src/fd/fdset.h"
#include "src/relational/dictionary.h"
#include "src/repair/evaluation.h"
#include "src/repair/heuristic.h"

namespace retrust::persist {

inline constexpr char kSnapshotMagic[8] = {'R', 'T', 'S', 'N',
                                           'A', 'P', 'S', 'H'};
/// Version history: v1 stored row-major cell codes; v2 stored column-major
/// codes (one contiguous column per attribute, matching EncodedInstance's
/// SoA layout) plus a per-group pair tally for groups kept without edges;
/// v3 dropped that field, since every group stores its edges; v4 (current)
/// drops the violation table's incidence rows, which a restore rebuilds
/// from Σ and the index. Older files report kVersionMismatch.
inline constexpr uint32_t kSnapshotFormatVersion = 4;

/// The (Σ, weights, heuristic) identity of a snapshot: a session may only
/// adopt a snapshot whose fingerprint matches its own configuration.
/// `weight_model` is the raw WeightModel value (persist/ sits below api/,
/// so the enum is carried as a byte).
uint64_t ConfigFingerprint(const FDSet& sigma, uint8_t weight_model,
                           const HeuristicOptions& heuristic);

/// Content stamp of the dataset (cardinality, codes, dictionaries): pairs
/// a delta journal with the exact base snapshot it extends.
uint64_t DataStamp(const EncodedInstance& inst);

/// Borrowed view of everything WriteSnapshotFile serializes; the pointees
/// must outlive the call. `warm` is held by value because exporting it
/// already copies (CoverMemo::ExportEntries).
struct SnapshotView {
  uint64_t fingerprint = 0;
  uint64_t data_stamp = 0;
  uint64_t data_version = 0;
  int64_t root_delta_p = 0;
  uint8_t weight_model = 0;
  HeuristicOptions heuristic;
  const EncodedInstance* encoded = nullptr;
  const std::vector<int32_t>* instance_next_var = nullptr;
  const FDSet* sigma = nullptr;
  const DifferenceSetIndex* index = nullptr;
  DeltaPEvaluator::WarmState warm;
};

/// Owning result of ReadSnapshotFile: the same parts, reconstructed.
struct SnapshotData {
  uint64_t fingerprint = 0;
  uint64_t data_stamp = 0;
  uint64_t data_version = 0;
  int64_t root_delta_p = 0;
  uint8_t weight_model = 0;
  HeuristicOptions heuristic;
  EncodedInstance encoded;
  std::vector<int32_t> instance_next_var;
  FDSet sigma;
  DifferenceSetIndex index;
  DeltaPEvaluator::WarmState warm;
};

/// Serializes `view` to `path` atomically enough for the service's needs:
/// the bytes are assembled in memory first, so a failed write never leaves
/// a half-written header behind a stale length. kIoError on any failure.
Status WriteSnapshotFile(const std::string& path, const SnapshotView& view);

/// Reads and validates a snapshot. kIoError for unreadable, truncated,
/// bit-flipped, or internally inconsistent files — including content a
/// valid checksum cannot vouch for: FDs, difference sets, edges or
/// cover-memo keys outside the shape the file itself declares.
/// kVersionMismatch for a format version this build does not speak.
Result<SnapshotData> ReadSnapshotFile(const std::string& path);

}  // namespace retrust::persist

#endif  // RETRUST_PERSIST_SNAPSHOT_H_
