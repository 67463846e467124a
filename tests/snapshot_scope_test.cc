// Warm-state snapshots at the edges of a serving process's life: a corrupt
// snapshot is rejected whole even when the target already holds warm state
// (every key in a snapshot carries its cluster scope — see
// TaskTimeMemo::Fingerprint — but import is all-or-nothing across scopes),
// and a draining or shutting-down service always leaves a restorable
// snapshot behind (`dagperf serve --snapshot-dir`).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "model/incremental.h"
#include "model/snapshot.h"
#include "model/task_time_cache.h"
#include "service/service.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

/// Per-test temp path under the build tree; removed on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path("snapshot_scope_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

bool FileExists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

TaskTimeMemo::ExportedEntry Entry(const std::string& key, double seconds) {
  TaskTimeMemo::ExportedEntry entry;
  entry.key = key;
  entry.time = Duration::Seconds(seconds);
  entry.has_time = true;
  return entry;
}

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

// ---------------------------------------------------------------------------
// Model layer: whole-snapshot rejection.

TEST(SnapshotScopeTest, CorruptSnapshotRejectsWholeIntoAWarmTarget) {
  TempPath file("corrupt");
  TaskTimeMemo memo;
  memo.Import({Entry("alpha#x", 1.0), Entry("beta#y", 2.0)});
  PrefixCheckpointStore store;
  ASSERT_TRUE(SaveWarmSnapshot(file.path, memo, store).ok());

  // Flip one payload bit. Validation happens before any entry is merged, so
  // the load must refuse even though most entries' bytes are intact.
  {
    std::FILE* f = std::fopen(file.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);
    int byte = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);
  }

  TaskTimeMemo restored;
  restored.Import({Entry("pre#existing", 5.0)});
  PrefixCheckpointStore restored_store;
  const Status loaded =
      LoadWarmSnapshot(file.path, &restored, &restored_store);
  EXPECT_FALSE(loaded.ok());
  // Target untouched: still exactly the pre-existing entry.
  const std::vector<TaskTimeMemo::ExportedEntry> entries = restored.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "pre#existing");
  EXPECT_EQ(restored_store.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Service layer: the graceful-drain final save.

TEST(SnapshotScopeTest, DrainAlwaysLeavesARestorableSnapshot) {
  TempPath file("drain_save");
  ServiceOptions options;
  options.snapshot_path = file.path;
  {
    EstimationService service(options);
    ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
    ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
    ASSERT_FALSE(FileExists(file.path))
        << "snapshot written before any drain/interval tick";
    ASSERT_TRUE(service.Drain().ok());
    EXPECT_TRUE(FileExists(file.path)) << "graceful drain must save";
  }

  TaskTimeMemo memo;
  PrefixCheckpointStore store;
  SnapshotStats stats;
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &memo, &store, &stats).ok());
  EXPECT_GT(stats.memo_entries, 0u);
}

TEST(SnapshotScopeTest, ShutdownAndDestructorAlsoSaveExactlyOnce) {
  TempPath file("shutdown_save");
  ServiceOptions options;
  options.snapshot_path = file.path;
  {
    EstimationService service(options);
    ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
    ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
    service.Shutdown(1.0);
    EXPECT_TRUE(FileExists(file.path));
    // The destructor's drain must not clobber the saved state with the
    // post-reset (empty) warm state.
  }
  TaskTimeMemo memo;
  PrefixCheckpointStore store;
  SnapshotStats stats;
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &memo, &store, &stats).ok());
  EXPECT_GT(stats.memo_entries, 0u);
}

}  // namespace
}  // namespace dagperf
