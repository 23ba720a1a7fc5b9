// Transaction semantics: CRUD, read-your-writes, atomic commit/abort,
// scans (PPIS vs index scan vs full scan), cost traces, failure injection.
// Every case runs on both engines.
#include <gtest/gtest.h>

#include "kv/kv.h"
#include "util/hash.h"

namespace hops::kv {
namespace {

class NdbTxTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.num_datanodes = 4;
    config.replication = 2;
    config.lock_wait_timeout = std::chrono::milliseconds(200);
    cluster_ = MakeEngine(GetParam(), config);
    // inode-like table: PK (parent, name), partitioned by parent.
    Schema s;
    s.table_name = "inodes";
    s.columns = {{"parent", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"id", ColumnType::kInt64},
                 {"size", ColumnType::kInt64}};
    s.primary_key = {0, 1};
    s.partition_key = {0};
    table_ = *cluster_->CreateTable(s);
  }

  Row MakeRow(int64_t parent, std::string name, int64_t id, int64_t size = 0) {
    return Row{parent, std::move(name), id, size};
  }

  void MustInsert(int64_t parent, const std::string& name, int64_t id) {
    auto tx = cluster_->Begin();
    ASSERT_TRUE(tx->Insert(table_, MakeRow(parent, name, id)).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }

  std::unique_ptr<Engine> cluster_;
  TableId table_ = 0;
};

TEST_P(NdbTxTest, InsertReadCommit) {
  MustInsert(1, "foo", 100);
  auto tx = cluster_->Begin();
  auto row = tx->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].i64(), 100);
}

TEST_P(NdbTxTest, ReadMissingRowIsNotFound) {
  auto tx = cluster_->Begin();
  auto row = tx->Read(table_, {int64_t{1}, "nope"}, LockMode::kShared);
  EXPECT_EQ(row.status().code(), hops::StatusCode::kNotFound);
}

TEST_P(NdbTxTest, DuplicateInsertRejected) {
  MustInsert(1, "foo", 100);
  auto tx = cluster_->Begin();
  EXPECT_EQ(tx->Insert(table_, MakeRow(1, "foo", 200)).code(),
            hops::StatusCode::kAlreadyExists);
}

TEST_P(NdbTxTest, UpdateRequiresExistingRow) {
  auto tx = cluster_->Begin();
  EXPECT_EQ(tx->Update(table_, MakeRow(1, "foo", 1)).code(), hops::StatusCode::kNotFound);
}

TEST_P(NdbTxTest, DeleteThenReadSameTx) {
  MustInsert(1, "foo", 100);
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Delete(table_, {int64_t{1}, "foo"}).ok());
  EXPECT_EQ(tx->Read(table_, {int64_t{1}, "foo"}, LockMode::kExclusive).status().code(),
            hops::StatusCode::kNotFound);
  ASSERT_TRUE(tx->Commit().ok());
  auto tx2 = cluster_->Begin();
  EXPECT_EQ(tx2->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted).status().code(),
            hops::StatusCode::kNotFound);
}

TEST_P(NdbTxTest, ReadYourOwnWrites) {
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Insert(table_, MakeRow(1, "foo", 100)).ok());
  auto row = tx->Read(table_, {int64_t{1}, "foo"}, LockMode::kExclusive);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].i64(), 100);
}

TEST_P(NdbTxTest, AbortDiscardsStagedWrites) {
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Insert(table_, MakeRow(1, "foo", 100)).ok());
  tx->Abort();
  auto tx2 = cluster_->Begin();
  EXPECT_EQ(tx2->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted).status().code(),
            hops::StatusCode::kNotFound);
}

TEST_P(NdbTxTest, UncommittedWritesInvisibleToOthers) {
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Insert(table_, MakeRow(1, "foo", 100)).ok());
  {
    auto other = cluster_->Begin();
    // Read-committed does not block and does not see the staged insert.
    EXPECT_EQ(
        other->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted).status().code(),
        hops::StatusCode::kNotFound);
  }
  ASSERT_TRUE(tx->Commit().ok());
  auto after = cluster_->Begin();
  EXPECT_TRUE(after->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted).ok());
}

TEST_P(NdbTxTest, ReadCommittedSeesOldValueDuringConcurrentUpdate) {
  MustInsert(1, "foo", 100);
  auto writer = cluster_->Begin();
  ASSERT_TRUE(writer->Update(table_, MakeRow(1, "foo", 999)).ok());
  auto reader = cluster_->Begin();
  auto row = reader->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].i64(), 100) << "read-committed must see the committed version";
  ASSERT_TRUE(writer->Commit().ok());
  auto row2 = reader->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted);
  ASSERT_TRUE(row2.ok());
  EXPECT_EQ((*row2)[2].i64(), 999) << "fuzzy read is permitted at read-committed";
}

TEST_P(NdbTxTest, ReadsAndScansShareTheStoredRow) {
  MustInsert(1, "foo", 100);
  MustInsert(1, "goo", 101);
  auto tx = cluster_->Begin();
  auto first = tx->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted);
  auto second = tx->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(&(*first)[0], &(*second)[0]) << "two reads of one committed row share its buffer";

  auto scanned = tx->Ppis(table_, {int64_t{1}});
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), 2u);
  EXPECT_EQ((*scanned)[0][1].str(), "foo");
  EXPECT_EQ(&(*scanned)[0][0], &(*first)[0]) << "a scan hands out the stored buffer";
  auto goo = tx->Read(table_, {int64_t{1}, "goo"}, LockMode::kReadCommitted);
  ASSERT_TRUE(goo.ok());
  EXPECT_EQ(&(*scanned)[1][0], &(*goo)[0]);
}

TEST_P(NdbTxTest, RowReadBeforeAnUpdateCommitsKeepsItsValues) {
  MustInsert(1, "foo", 100);
  auto reader = cluster_->Begin();
  auto before = reader->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted);
  ASSERT_TRUE(before.ok());

  auto writer = cluster_->Begin();
  ASSERT_TRUE(writer->Update(table_, MakeRow(1, "foo", 100, 42)).ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto after = reader->Read(table_, {int64_t{1}, "foo"}, LockMode::kReadCommitted);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)[3].i64(), 42);
  EXPECT_NE(&(*after)[0], &(*before)[0]) << "an update installs a new version";
  EXPECT_EQ((*before)[3].i64(), 0) << "a row already read keeps its values";

  auto deleter = cluster_->Begin();
  ASSERT_TRUE(deleter->Delete(table_, {int64_t{1}, "foo"}).ok());
  ASSERT_TRUE(deleter->Commit().ok());
  EXPECT_EQ((*after)[3].i64(), 42) << "and outlives the key's delete";
  EXPECT_EQ((*after)[1].str(), "foo");
}

TEST_P(NdbTxTest, MultiPartitionCommitIsApplied) {
  auto tx = cluster_->Begin();
  for (int64_t parent = 0; parent < 20; ++parent) {
    ASSERT_TRUE(tx->Insert(table_, MakeRow(parent, "f", parent * 10)).ok());
  }
  ASSERT_TRUE(tx->Commit().ok());
  auto check = cluster_->Begin();
  for (int64_t parent = 0; parent < 20; ++parent) {
    auto row = check->Read(table_, {parent, "f"}, LockMode::kReadCommitted);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[2].i64(), parent * 10);
  }
}

TEST_P(NdbTxTest, BatchReadAlignsResults) {
  MustInsert(1, "a", 10);
  MustInsert(2, "b", 20);
  auto tx = cluster_->Begin();
  auto res = tx->BatchRead(table_,
                           {{int64_t{1}, "a"}, {int64_t{9}, "missing"}, {int64_t{2}, "b"}},
                           LockMode::kReadCommitted);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 3u);
  ASSERT_TRUE((*res)[0].has_value());
  EXPECT_EQ((*(*res)[0])[2].i64(), 10);
  EXPECT_FALSE((*res)[1].has_value());
  ASSERT_TRUE((*res)[2].has_value());
  EXPECT_EQ((*(*res)[2])[2].i64(), 20);
}

TEST_P(NdbTxTest, PpisReturnsOnlyChildrenOfParent) {
  for (int i = 0; i < 10; ++i) MustInsert(7, "c" + std::to_string(i), 100 + i);
  MustInsert(8, "other", 500);
  auto tx = cluster_->Begin();
  auto rows = tx->Ppis(table_, {int64_t{7}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  for (const auto& r : *rows) EXPECT_EQ(r[0].i64(), 7);
}

TEST_P(NdbTxTest, PpisSeesOwnStagedWrites) {
  MustInsert(7, "a", 1);
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Insert(table_, MakeRow(7, "b", 2)).ok());
  ASSERT_TRUE(tx->Delete(table_, {int64_t{7}, "a"}).ok());
  auto rows = tx->Ppis(table_, {int64_t{7}});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].str(), "b");
}

TEST_P(NdbTxTest, IndexScanFindsRowsAcrossPartitions) {
  for (int64_t parent = 0; parent < 16; ++parent) MustInsert(parent, "x", parent);
  auto tx = cluster_->Begin();
  ScanOptions opts;
  opts.eq_filter = {{1, Value("x")}};
  auto rows = tx->IndexScan(table_, {}, opts);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 16u);
}

TEST_P(NdbTxTest, FullTableScanSeesEverything) {
  for (int64_t parent = 0; parent < 12; ++parent) {
    MustInsert(parent, "a", parent);
    MustInsert(parent, "b", parent + 100);
  }
  auto tx = cluster_->Begin();
  auto rows = tx->FullTableScan(table_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 24u);
}

TEST_P(NdbTxTest, ScanWithPredicate) {
  for (int i = 0; i < 10; ++i) MustInsert(3, "f" + std::to_string(i), i);
  auto tx = cluster_->Begin();
  ScanOptions opts;
  opts.predicate = [](const Row& r) { return r[2].i64() % 2 == 0; };
  auto rows = tx->Ppis(table_, {int64_t{3}}, opts);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST_P(NdbTxTest, ExplicitPartitionValueRouting) {
  Schema s;
  s.table_name = "adp";
  s.columns = {{"parent", ColumnType::kInt64},
               {"name", ColumnType::kString},
               {"id", ColumnType::kInt64}};
  s.primary_key = {0, 1};
  s.requires_explicit_partition = true;
  TableId adp = *cluster_->CreateTable(s);

  // Writes and reads must agree on the explicit partition value.
  uint64_t pv = hops::HashBytes("top-dir");
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Insert(adp, Row{int64_t{1}, "top-dir", int64_t{5}}, pv).ok());
  ASSERT_TRUE(tx->Commit().ok());

  auto tx2 = cluster_->Begin();
  auto row = tx2->Read(adp, {int64_t{1}, "top-dir"}, LockMode::kReadCommitted, pv);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].i64(), 5);

  // Accessing without a partition value is an error for this table.
  auto bad = tx2->Read(adp, {int64_t{1}, "top-dir"}, LockMode::kReadCommitted);
  EXPECT_EQ(bad.status().code(), hops::StatusCode::kInvalidArgument);

  // A wrong partition value misses the row (it lives in another shard).
  uint64_t wrong_pv = pv + 1;
  if (cluster_->PartitionForValue(wrong_pv) != cluster_->PartitionForValue(pv)) {
    auto miss = tx2->Read(adp, {int64_t{1}, "top-dir"}, LockMode::kReadCommitted, wrong_pv);
    EXPECT_EQ(miss.status().code(), hops::StatusCode::kNotFound);
  }
}

TEST_P(NdbTxTest, CostTraceOrdersAccessPaths) {
  // Figure 2's premise: PK and batched ops touch one/few partitions, PPIS
  // touches exactly one, IS/FTS touch all.
  for (int i = 0; i < 50; ++i) MustInsert(5, "f" + std::to_string(i), i);

  auto tx = cluster_->Begin(TxHint{table_, 5});
  tx->EnableTrace();
  ASSERT_TRUE(tx->Read(table_, {int64_t{5}, "f0"}, LockMode::kReadCommitted).ok());
  ASSERT_TRUE(tx->Ppis(table_, {int64_t{5}}).ok());
  ASSERT_TRUE(tx->IndexScan(table_, {int64_t{5}}).ok());
  const auto& trace = tx->trace();
  ASSERT_EQ(trace.accesses.size(), 3u);
  EXPECT_EQ(trace.accesses[0].kind, AccessKind::kPkRead);
  EXPECT_EQ(trace.accesses[0].parts.size(), 1u);
  EXPECT_TRUE(trace.accesses[0].parts[0].local) << "DAT hint should make the PK read local";
  EXPECT_EQ(trace.accesses[1].kind, AccessKind::kPpis);
  EXPECT_EQ(trace.accesses[1].parts.size(), 1u);
  EXPECT_EQ(trace.accesses[2].kind, AccessKind::kIndexScan);
  EXPECT_EQ(trace.accesses[2].parts.size(), cluster_->num_partitions());
}

TEST_P(NdbTxTest, StatsCountersTrackOperations) {
  cluster_->ResetStats();
  MustInsert(1, "a", 1);
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Read(table_, {int64_t{1}, "a"}, LockMode::kReadCommitted).ok());
  ASSERT_TRUE(tx->Ppis(table_, {int64_t{1}}).ok());
  ASSERT_TRUE(tx->FullTableScan(table_).ok());
  auto s = cluster_->StatsSnapshot();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.pk_reads, 1u);
  EXPECT_EQ(s.ppis_scans, 1u);
  EXPECT_EQ(s.full_table_scans, 1u);
  EXPECT_EQ(s.rows_written, 1u);
}

TEST_P(NdbTxTest, CoordinatorFailureAbortsTransaction) {
  MustInsert(1, "a", 1);
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Read(table_, {int64_t{1}, "a"}, LockMode::kExclusive).ok());
  cluster_->KillDatanode(tx->coordinator());
  auto st = tx->Read(table_, {int64_t{1}, "a"}, LockMode::kExclusive);
  EXPECT_EQ(st.status().code(), hops::StatusCode::kTxAborted);
  EXPECT_FALSE(tx->active());
  cluster_->RestartDatanode(0);
  cluster_->RestartDatanode(1);
  cluster_->RestartDatanode(2);
  cluster_->RestartDatanode(3);
  // The abort released the X lock: a fresh transaction can take it.
  auto tx2 = cluster_->Begin();
  EXPECT_TRUE(tx2->Read(table_, {int64_t{1}, "a"}, LockMode::kExclusive).ok());
}

TEST_P(NdbTxTest, CommitFailsWhenCoordinatorDies) {
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Insert(table_, MakeRow(1, "b", 2)).ok());
  cluster_->KillDatanode(tx->coordinator());
  EXPECT_EQ(tx->Commit().code(), hops::StatusCode::kTxAborted);
  for (uint32_t n = 0; n < 4; ++n) cluster_->RestartDatanode(n);
  auto check = cluster_->Begin();
  EXPECT_EQ(check->Read(table_, {int64_t{1}, "b"}, LockMode::kReadCommitted).status().code(),
            hops::StatusCode::kNotFound)
      << "aborted 2PC must not leak writes";
}

TEST_P(NdbTxTest, WholeGroupDownMakesOperationsUnavailable) {
  MustInsert(1, "a", 1);
  cluster_->KillDatanode(0);
  cluster_->KillDatanode(1);
  // Some partition now has no live replica; an op landing there fails with
  // kUnavailable. Find such a row deterministically by scanning parents.
  bool saw_unavailable = false;
  for (int64_t parent = 0; parent < 64 && !saw_unavailable; ++parent) {
    auto tx = cluster_->Begin();
    auto st = tx->Read(table_, {parent, "x"}, LockMode::kReadCommitted);
    if (st.status().code() == hops::StatusCode::kUnavailable) saw_unavailable = true;
  }
  EXPECT_TRUE(saw_unavailable);
}

TEST_P(NdbTxTest, DestructorAbortsActiveTransaction) {
  {
    auto tx = cluster_->Begin();
    ASSERT_TRUE(tx->Insert(table_, MakeRow(1, "tmp", 1)).ok());
    // dropped without Commit
  }
  auto check = cluster_->Begin();
  EXPECT_EQ(check->Read(table_, {int64_t{1}, "tmp"}, LockMode::kReadCommitted).status().code(),
            hops::StatusCode::kNotFound);
}

std::string EngineName(const ::testing::TestParamInfo<EngineKind>& info) {
  return std::string(EngineKindName(info.param));
}

INSTANTIATE_TEST_SUITE_P(Engines, NdbTxTest,
                         ::testing::Values(EngineKind::kNdb, EngineKind::kOcc), EngineName);

}  // namespace
}  // namespace hops::kv
