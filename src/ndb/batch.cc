// ReadBatch / WriteBatch staging. Execution lives in kv/skeleton.cc
// (routing, flush windows, cost accounting) and the engines' concurrency
// control (2PL lock ordering in ndb/transaction.cc).
#include "ndb/batch.h"

namespace hops::ndb {

size_t ReadBatch::Get(TableId table, Key key, LockMode mode, std::optional<uint64_t> pv) {
  assert(!executed_ && "cannot stage into an executed batch");
  Op op;
  op.kind = Op::Kind::kGet;
  op.table = table;
  op.key = std::move(key);
  op.mode = mode;
  op.pv = pv;
  ops_.push_back(std::move(op));
  return ops_.size() - 1;
}

size_t ReadBatch::Scan(TableId table, Key prefix, ScanOptions opts,
                       std::optional<uint64_t> pv) {
  assert(!executed_ && "cannot stage into an executed batch");
  Op op;
  op.kind = Op::Kind::kScan;
  op.table = table;
  op.key = std::move(prefix);
  op.opts = std::move(opts);
  op.pv = pv;
  ops_.push_back(std::move(op));
  return ops_.size() - 1;
}

const std::optional<Row>& ReadBatch::row(size_t slot) const {
  assert(executed_ && "results are valid only after Execute");
  assert(slot < ops_.size() && ops_[slot].kind == Op::Kind::kGet);
  return ops_[slot].row;
}

const std::vector<Row>& ReadBatch::rows(size_t slot) const {
  assert(executed_ && "results are valid only after Execute");
  assert(slot < ops_.size() && ops_[slot].kind == Op::Kind::kScan);
  return ops_[slot].rows;
}

void WriteBatch::Insert(TableId table, Row row, std::optional<uint64_t> pv) {
  assert(!executed_ && "cannot stage into an executed batch");
  Op op;
  op.kind = Op::Kind::kInsert;
  op.table = table;
  op.row = std::move(row);
  op.pv = pv;
  ops_.push_back(std::move(op));
}

void WriteBatch::Update(TableId table, Row row, std::optional<uint64_t> pv) {
  assert(!executed_ && "cannot stage into an executed batch");
  Op op;
  op.kind = Op::Kind::kUpdate;
  op.table = table;
  op.row = std::move(row);
  op.pv = pv;
  ops_.push_back(std::move(op));
}

void WriteBatch::Write(TableId table, Row row, std::optional<uint64_t> pv) {
  assert(!executed_ && "cannot stage into an executed batch");
  Op op;
  op.kind = Op::Kind::kWrite;
  op.table = table;
  op.row = std::move(row);
  op.pv = pv;
  ops_.push_back(std::move(op));
}

void WriteBatch::Delete(TableId table, Key key, std::optional<uint64_t> pv) {
  assert(!executed_ && "cannot stage into an executed batch");
  Op op;
  op.kind = Op::Kind::kDelete;
  op.table = table;
  op.key = std::move(key);
  op.pv = pv;
  ops_.push_back(std::move(op));
}

void WriteBatch::DeleteIfExists(TableId table, Key key, std::optional<uint64_t> pv) {
  Delete(table, std::move(key), pv);
  ops_.back().ignore_missing = true;
}

}  // namespace hops::ndb
