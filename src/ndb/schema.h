// Table schemas with application-defined partitioning (ADP).
//
// As in MySQL Cluster, the partition key must be a subset of the primary key
// so that any primary-key access can be routed to its partition without a
// lookup. Tables may additionally demand an explicit per-access partition
// value: HopsFS uses this for the inode table, whose top levels are
// pseudo-randomly partitioned by child name while deeper levels are
// partitioned by parent inode id (paper §4.2.1).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ndb/value.h"

namespace hops::ndb {

struct Column {
  std::string name;
  ColumnType type;
};

struct Schema {
  std::string table_name;
  std::vector<Column> columns;
  // Indices (into `columns`) of the primary key, in key order.
  std::vector<size_t> primary_key;
  // Indices of the partition-key columns; must be a subset of primary_key.
  // Ignored for accesses that supply an explicit partition value.
  std::vector<size_t> partition_key;
  // When true, every access must pass an explicit partition value; routing
  // from column values alone would be ambiguous (inode table).
  bool requires_explicit_partition = false;

  bool Validate(std::string* error) const;

  size_t ColumnIndex(std::string_view name) const;  // asserts on miss
};

using TableId = uint32_t;
using TxId = uint64_t;

}  // namespace hops::ndb
