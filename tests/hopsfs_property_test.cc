// Property-based testing: a randomized operation sequence is applied both to
// HopsFS (through different namenodes) and to a trivial in-memory reference
// file system; observable state must match at every checkpoint. Parameterized
// over seeds and namenode-selection policies.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "hopsfs/mini_cluster.h"
#include "util/rng.h"

namespace hops::fs {
namespace {

// The reference model: a plain tree.
class RefFs {
 public:
  struct Node {
    bool is_dir;
    int64_t size = 0;
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  RefFs() { root_.is_dir = true; }

  bool Mkdirs(const std::string& path) {
    Node* cur = &root_;
    for (const auto& part : Split(path)) {
      auto& slot = cur->children[part];
      if (!slot) {
        slot = std::make_unique<Node>();
        slot->is_dir = true;
      }
      if (!slot->is_dir) return false;
      cur = slot.get();
    }
    return true;
  }

  bool CreateFile(const std::string& path, int64_t size) {
    auto [parent, name] = Locate(path);
    if (parent == nullptr || !parent->is_dir || parent->children.count(name)) return false;
    auto node = std::make_unique<Node>();
    node->is_dir = false;
    node->size = size;
    parent->children[name] = std::move(node);
    return true;
  }

  bool Delete(const std::string& path, bool recursive) {
    auto [parent, name] = Locate(path);
    if (parent == nullptr) return false;
    auto it = parent->children.find(name);
    if (it == parent->children.end()) return false;
    if (it->second->is_dir && !it->second->children.empty() && !recursive) return false;
    parent->children.erase(it);
    return true;
  }

  bool Rename(const std::string& src, const std::string& dst) {
    if (IsPrefixPath(src, dst)) return false;
    auto [sp, sname] = Locate(src);
    if (sp == nullptr || !sp->children.count(sname)) return false;
    auto [dp, dname] = Locate(dst);
    if (dp == nullptr || !dp->is_dir || dp->children.count(dname)) return false;
    dp->children[dname] = std::move(sp->children[sname]);
    sp->children.erase(sname);
    return true;
  }

  // (name, is_dir, size) triples of a directory listing, or nullopt.
  std::optional<std::vector<std::tuple<std::string, bool, int64_t>>> List(
      const std::string& path) {
    Node* node = Find(path);
    if (node == nullptr) return std::nullopt;
    std::vector<std::tuple<std::string, bool, int64_t>> out;
    if (!node->is_dir) return out;
    for (const auto& [name, child] : node->children) {
      out.emplace_back(name, child->is_dir, child->size);
    }
    return out;
  }

  bool Exists(const std::string& path) { return Find(path) != nullptr; }

  // Every path in the tree, for full-state comparison.
  void AllPaths(std::vector<std::string>& out) const {
    std::string cur;
    Walk(&root_, cur, out);
  }

 private:
  static std::vector<std::string> Split(const std::string& path) {
    return *SplitPath(path);
  }

  Node* Find(const std::string& path) {
    Node* cur = &root_;
    for (const auto& part : Split(path)) {
      if (!cur->is_dir) return nullptr;
      auto it = cur->children.find(part);
      if (it == cur->children.end()) return nullptr;
      cur = it->second.get();
    }
    return cur;
  }

  std::pair<Node*, std::string> Locate(const std::string& path) {
    auto parts = Split(path);
    if (parts.empty()) return {nullptr, ""};
    Node* cur = &root_;
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
      if (!cur->is_dir) return {nullptr, ""};
      auto it = cur->children.find(parts[i]);
      if (it == cur->children.end()) return {nullptr, ""};
      cur = it->second.get();
    }
    return {cur->is_dir ? cur : nullptr, parts.back()};
  }

  static void Walk(const Node* node, std::string& cur, std::vector<std::string>& out) {
    for (const auto& [name, child] : node->children) {
      size_t len = cur.size();
      cur += '/';
      cur += name;
      out.push_back(cur);
      if (child->is_dir) Walk(child.get(), cur, out);
      cur.resize(len);
    }
  }

  Node root_;
};

struct PropertyParam {
  uint64_t seed;
  NamenodePolicy policy;
};

class PropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  void SetUp() override {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(300);
    options.num_namenodes = 3;
    options.num_datanodes = 3;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
  }

  void CompareFullState(Client& client, RefFs& ref) {
    std::vector<std::string> paths;
    ref.AllPaths(paths);
    // Every model path exists in HopsFS with matching type/size.
    for (const auto& path : paths) {
      auto st = client.Stat(path);
      ASSERT_TRUE(st.ok()) << path << " missing in HopsFS";
      auto listing = ref.List(path);
    }
    // Every HopsFS path exists in the model (walk via listings).
    std::vector<std::string> frontier{"/"};
    while (!frontier.empty()) {
      std::string dir = frontier.back();
      frontier.pop_back();
      auto listing = client.List(dir);
      ASSERT_TRUE(listing.ok()) << dir;
      auto ref_listing = ref.List(dir == "/" ? "/" : dir);
      ASSERT_TRUE(ref_listing.has_value()) << dir;
      ASSERT_EQ(listing->size(), ref_listing->size()) << "listing mismatch in " << dir;
      for (size_t i = 0; i < listing->size(); ++i) {
        const FileStatus& got = (*listing)[i];
        const auto& [name, is_dir, size] = (*ref_listing)[i];
        EXPECT_EQ(got.name, name) << dir;
        EXPECT_EQ(got.is_dir, is_dir) << dir << "/" << name;
        if (!is_dir) {
          EXPECT_EQ(got.size, size) << dir << "/" << name;
        }
        if (is_dir) frontier.push_back(dir == "/" ? "/" + name : dir + "/" + name);
      }
    }
  }

  std::unique_ptr<MiniCluster> cluster_;
};

TEST_P(PropertyTest, RandomOpsMatchReferenceModel) {
  const PropertyParam param = GetParam();
  Rng rng(param.seed);
  RefFs ref;
  Client client = cluster_->NewClient(param.policy, "prop", param.seed);

  // A small pool of path components keeps collisions (and thus interesting
  // error paths) frequent.
  const std::vector<std::string> names = {"a", "b", "c", "d", "e"};
  auto random_path = [&](int max_depth) {
    int depth = static_cast<int>(rng.Range(1, max_depth));
    std::string path;
    for (int i = 0; i < depth; ++i) {
      path += '/';
      path += names[rng.Below(names.size())];
    }
    return path;
  };

  for (int step = 0; step < 220; ++step) {
    int op = static_cast<int>(rng.Below(6));
    std::string p1 = random_path(4);
    switch (op) {
      case 0: {  // mkdirs
        bool ref_ok = ref.Mkdirs(p1);
        auto st = client.Mkdirs(p1);
        EXPECT_EQ(st.ok(), ref_ok) << "mkdirs " << p1 << ": " << st.ToString();
        break;
      }
      case 1: {  // create (one block of a random size)
        int64_t size = rng.Range(0, 1000);
        bool ref_ok = ref.CreateFile(p1, size);
        hops::Status st = client.CreateFile(p1);
        if (st.ok()) {
          if (size > 0) {
            ASSERT_TRUE(client.AddBlock(p1, size).ok());
          }
          ASSERT_TRUE(client.CompleteFile(p1).ok());
        }
        EXPECT_EQ(st.ok(), ref_ok) << "create " << p1 << ": " << st.ToString();
        break;
      }
      case 2: {  // delete (sometimes recursive)
        bool recursive = rng.Chance(0.5);
        bool ref_ok = ref.Delete(p1, recursive);
        auto st = client.Delete(p1, recursive);
        EXPECT_EQ(st.ok(), ref_ok)
            << "delete " << p1 << " r=" << recursive << ": " << st.ToString();
        break;
      }
      case 3: {  // rename
        std::string p2 = random_path(4);
        if (p1 == p2) break;
        bool ref_ok = ref.Rename(p1, p2);
        auto st = client.Rename(p1, p2);
        EXPECT_EQ(st.ok(), ref_ok)
            << "rename " << p1 << " -> " << p2 << ": " << st.ToString();
        break;
      }
      case 4: {  // stat
        bool ref_ok = ref.Exists(p1);
        EXPECT_EQ(client.Stat(p1).ok(), ref_ok) << "stat " << p1;
        break;
      }
      case 5: {  // list
        auto ref_listing = ref.List(p1);
        auto listing = client.List(p1);
        EXPECT_EQ(listing.ok(), ref_listing.has_value()) << "list " << p1;
        break;
      }
    }
    if (step % 55 == 54) CompareFullState(client, ref);
  }
  CompareFullState(client, ref);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, PropertyTest,
    ::testing::Values(PropertyParam{1, NamenodePolicy::kSticky},
                      PropertyParam{2, NamenodePolicy::kRoundRobin},
                      PropertyParam{3, NamenodePolicy::kRandom},
                      PropertyParam{4, NamenodePolicy::kRoundRobin},
                      PropertyParam{5, NamenodePolicy::kSticky}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      const char* policy = info.param.policy == NamenodePolicy::kSticky ? "Sticky"
                           : info.param.policy == NamenodePolicy::kRoundRobin
                               ? "RoundRobin"
                               : "Random";
      return "Seed" + std::to_string(info.param.seed) + policy;
    });

}  // namespace
}  // namespace hops::fs
