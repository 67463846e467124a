#ifndef DAGPERF_MODEL_SNAPSHOT_H_
#define DAGPERF_MODEL_SNAPSHOT_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "model/incremental.h"
#include "model/task_time_cache.h"

namespace dagperf {

/// Warm-state snapshot: persists a TaskTimeMemo + PrefixCheckpointStore to
/// disk so a restarted `dagperf serve` does not greet its clients with a
/// cold-cache latency cliff (`dagperf serve --snapshot-dir`).
///
/// Format (binary, little-endian as written by the host — snapshots are a
/// same-host restart aid, not a portable interchange format):
///
///   magic            "DPWARM01"            8 bytes
///   format_version   u32                   bumped on any layout change
///   resource_count   u32                   kNumResources at save time
///   payload_size     u64                   bytes following the checksum
///   checksum         u64                   FNV-1a64 over the payload
///   payload          memo entries, then checkpoints, every numeric field
///                    written bit-exact (raw double/int bytes) so a restored
///                    store answers bit-identically to the saved one
///
/// Rejection is always clean: a truncated file, flipped bit, wrong magic, or
/// a snapshot from a binary with a different format/resource layout returns
/// a non-Ok Status with a diagnostic naming what failed, and the target
/// stores are left exactly as they were — the caller simply cold-starts.
/// Loading never trusts a length field beyond the actual payload: every
/// read is bounds-checked before the checksum has a chance to lie.

struct SnapshotStats {
  std::size_t memo_entries = 0;
  std::size_t checkpoints = 0;
  /// Serialized payload size on disk.
  std::size_t bytes = 0;
};

/// Serialises `memo` + `checkpoints` to `path` (written via a temp file +
/// rename, so a crash mid-save never leaves a torn snapshot under the real
/// name). Concurrent memo/store writers are safe — Export takes their locks
/// — but the snapshot is a point-in-time cut, not a fence.
Status SaveWarmSnapshot(const std::string& path, const TaskTimeMemo& memo,
                        const PrefixCheckpointStore& checkpoints,
                        SnapshotStats* stats = nullptr);

/// Parses and validates the snapshot at `path`, then imports its entries
/// into `memo` and `checkpoints` (first-wins merge on both). On any
/// validation failure the targets are untouched and the Status says why:
/// kNotFound (no such file), kInvalidArgument (corrupt: bad magic, size
/// mismatch, checksum mismatch, truncated field), kFailedPrecondition
/// (stale: a different format or resource layout).
Status LoadWarmSnapshot(const std::string& path, TaskTimeMemo* memo,
                        PrefixCheckpointStore* checkpoints,
                        SnapshotStats* stats = nullptr);

}  // namespace dagperf

#endif  // DAGPERF_MODEL_SNAPSHOT_H_
