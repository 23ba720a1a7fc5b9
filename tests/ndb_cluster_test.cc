// Cluster topology, partition routing, node groups, failure semantics and
// memory accounting. The topology cases run on both engines.
#include <gtest/gtest.h>

#include "kv/kv.h"

namespace hops::kv {
namespace {

Schema KvSchema(std::string name = "kv") {
  Schema s;
  s.table_name = std::move(name);
  s.columns = {{"k", ColumnType::kInt64}, {"v", ColumnType::kString}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

TEST(SchemaTest, ValidatesPartitionKeySubsetOfPk) {
  Schema s = KvSchema();
  s.partition_key = {1};  // "v" is not part of the PK
  std::string error;
  EXPECT_FALSE(s.Validate(&error));
  EXPECT_NE(error.find("partition key"), std::string::npos);
}

TEST(SchemaTest, RejectsMissingPk) {
  Schema s = KvSchema();
  s.primary_key = {};
  std::string error;
  EXPECT_FALSE(s.Validate(&error));
}

TEST(SchemaTest, ExplicitPartitioningNeedsNoPartitionKey) {
  Schema s = KvSchema();
  s.partition_key = {};
  s.requires_explicit_partition = true;
  std::string error;
  EXPECT_TRUE(s.Validate(&error)) << error;
}

class ClusterTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  std::unique_ptr<Engine> Make(EngineConfig config) { return MakeEngine(GetParam(), config); }
};

TEST_P(ClusterTest, NodeGroupLayout) {
  auto c = Make({.num_datanodes = 12, .replication = 2});
  EXPECT_EQ(c->num_node_groups(), 6u);
  EXPECT_EQ(c->num_partitions(), 24u);
  EXPECT_EQ(c->NumAliveNodes(), 12u);
  EXPECT_TRUE(c->Available());
}

TEST_P(ClusterTest, PartitionRoutingIsStable) {
  auto c = Make({.num_datanodes = 4, .replication = 2});
  for (uint64_t v = 0; v < 100; ++v) {
    EXPECT_EQ(c->PartitionForValue(v), c->PartitionForValue(v));
    EXPECT_LT(c->PartitionForValue(v), c->num_partitions());
  }
}

TEST_P(ClusterTest, SurvivesSingleNodeFailurePerGroup) {
  // Paper §7.6.2: a 12-node cluster with R=2 tolerates 6 failures in
  // disjoint node groups.
  auto c = Make({.num_datanodes = 12, .replication = 2});
  for (uint32_t g = 0; g < 6; ++g) c->KillDatanode(g * 2);
  EXPECT_EQ(c->NumAliveNodes(), 6u);
  EXPECT_TRUE(c->Available());
}

TEST_P(ClusterTest, WholeGroupFailureBringsClusterDown) {
  auto c = Make({.num_datanodes = 4, .replication = 2});
  c->KillDatanode(0);
  EXPECT_TRUE(c->Available());
  c->KillDatanode(1);  // both members of group 0
  EXPECT_FALSE(c->Available());
  c->RestartDatanode(0);
  EXPECT_TRUE(c->Available());
}

TEST_P(ClusterTest, PrimaryNodeFailsOverWithinGroup) {
  auto c = Make({.num_datanodes = 4, .replication = 2});
  // Find a partition whose group is group 0 (nodes 0 and 1).
  uint32_t partition = 0;
  bool found = false;
  for (uint32_t p = 0; p < c->num_partitions(); ++p) {
    if (p % c->num_node_groups() == 0) {
      partition = p;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  ASSERT_EQ(c->PrimaryNode(partition), 0u);
  c->KillDatanode(0);
  EXPECT_EQ(c->PrimaryNode(partition), 1u);
  c->KillDatanode(1);
  EXPECT_FALSE(c->PrimaryNode(partition).has_value());
}

TEST_P(ClusterTest, ReplicationDegreeThree) {
  auto c = Make({.num_datanodes = 6, .replication = 3});
  EXPECT_EQ(c->num_node_groups(), 2u);
  c->KillDatanode(0);
  c->KillDatanode(1);
  EXPECT_TRUE(c->Available());  // node 2 still carries group 0
  c->KillDatanode(2);
  EXPECT_FALSE(c->Available());
}

TEST_P(ClusterTest, CreateTableRejectsInvalidSchema) {
  auto c = Make({.num_datanodes = 2, .replication = 2});
  Schema s = KvSchema();
  s.primary_key = {5};
  auto r = c->CreateTable(s);
  EXPECT_FALSE(r.ok());
}

TEST_P(ClusterTest, FindTableByName) {
  auto c = Make({.num_datanodes = 2, .replication = 2});
  auto t1 = c->CreateTable(KvSchema("alpha"));
  auto t2 = c->CreateTable(KvSchema("beta"));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(c->FindTable("alpha"), *t1);
  EXPECT_EQ(c->FindTable("beta"), *t2);
  EXPECT_FALSE(c->FindTable("gamma").has_value());
}

TEST_P(ClusterTest, MemoryAccountingGrowsWithRowsAndReplication) {
  auto c = Make({.num_datanodes = 2, .replication = 2});
  auto t = c->CreateTable(KvSchema());
  ASSERT_TRUE(t.ok());
  size_t empty = c->TableMemoryBytes(*t);
  auto tx = c->Begin();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tx->Insert(*t, Row{i, std::string(100, 'x')}).ok());
  }
  ASSERT_TRUE(tx->Commit().ok());
  size_t filled = c->TableMemoryBytes(*t);
  EXPECT_EQ(c->TableRowCount(*t), 100u);
  // >= 100 rows * (100B payload + overhead) * R=2
  EXPECT_GT(filled - empty, 100u * 100u * 2u);
}

TEST_P(ClusterTest, GlobalCheckpointEpochAdvances) {
  auto c = Make({.num_datanodes = 2, .replication = 2});
  auto t = c->CreateTable(KvSchema());
  ASSERT_TRUE(t.ok());
  uint64_t epoch0 = c->GlobalCheckpointEpoch();
  for (int64_t i = 0; i < 300; ++i) {
    auto tx = c->Begin();
    ASSERT_TRUE(tx->Insert(*t, Row{i, "v"}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  EXPECT_GT(c->GlobalCheckpointEpoch(), epoch0);
}

TEST_P(ClusterTest, CoordinatorPlacementFollowsHint) {
  auto c = Make({.num_datanodes = 4, .replication = 2});
  auto t = c->CreateTable(KvSchema());
  ASSERT_TRUE(t.ok());
  // Distribution-aware transaction: the coordinator must be the primary node
  // of the hinted partition.
  for (uint64_t v = 0; v < 32; ++v) {
    auto tx = c->Begin(TxHint{*t, v});
    uint32_t partition = c->PartitionForValue(v);
    EXPECT_EQ(tx->coordinator(), c->PrimaryNode(partition).value());
  }
}

TEST_P(ClusterTest, CoordinatorAvoidsDeadNodesWithoutHint) {
  auto c = Make({.num_datanodes = 4, .replication = 2});
  c->KillDatanode(2);
  for (int i = 0; i < 16; ++i) {
    auto tx = c->Begin();
    EXPECT_NE(tx->coordinator(), 2u);
  }
}

std::string EngineName(const ::testing::TestParamInfo<EngineKind>& info) {
  return std::string(EngineKindName(info.param));
}

INSTANTIATE_TEST_SUITE_P(Engines, ClusterTest,
                         ::testing::Values(EngineKind::kNdb, EngineKind::kOcc), EngineName);

}  // namespace
}  // namespace hops::kv
