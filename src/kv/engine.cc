// Backend selection: name parsing, the HOPS_KV_ENGINE environment override,
// and the factory both MiniCluster and the benches construct engines through.
#include <cctype>
#include <cstdlib>

#include "kv/occ_engine.h"
#include "ndb/cluster.h"

namespace hops::kv {

std::string_view EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNdb: return "ndb";
    case EngineKind::kOcc: return "occ";
  }
  return "?";
}

std::optional<EngineKind> ParseEngineKind(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "ndb" || lower == "2pl") return EngineKind::kNdb;
  if (lower == "occ" || lower == "mvcc") return EngineKind::kOcc;
  return std::nullopt;
}

std::optional<EngineKind> EngineKindFromEnv() {
  const char* env = std::getenv("HOPS_KV_ENGINE");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return ParseEngineKind(env);
}

std::unique_ptr<Engine> MakeEngine(EngineKind kind, EngineConfig config) {
  switch (kind) {
    case EngineKind::kNdb: return std::make_unique<ndb::Cluster>(config);
    case EngineKind::kOcc: return std::make_unique<OccEngine>(config);
  }
  return nullptr;
}

}  // namespace hops::kv
