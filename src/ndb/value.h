// Typed values, rows and order-preserving key encoding for the NDB engine.
//
// Keys are tuples of column values encoded into byte strings whose
// lexicographic order equals the tuple order, and where the encoding of a
// tuple prefix is a byte-prefix of the full tuple's encoding. This gives the
// per-partition ordered primary index "prefix scan" capability that HopsFS
// partition-pruned index scans rely on (e.g. all children of a directory
// share the (parent_id) key prefix).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace hops::ndb {

enum class ColumnType { kInt64, kString };

class Value {
 public:
  Value() : v_(int64_t{0}) {}
  Value(int64_t x) : v_(x) {}                    // NOLINT: implicit by design
  Value(std::string s) : v_(std::move(s)) {}     // NOLINT: implicit by design
  Value(const char* s) : v_(std::string(s)) {}   // NOLINT: implicit by design

  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t i64() const {
    assert(is_int());
    return std::get<int64_t>(v_);
  }
  const std::string& str() const {
    assert(is_string());
    return std::get<std::string>(v_);
  }

  ColumnType type() const { return is_int() ? ColumnType::kInt64 : ColumnType::kString; }

  // Approximate in-memory footprint of this value inside a stored row,
  // modelling NDB's layout (fixed 8-byte ints, varchars stored inline with
  // a length prefix) rather than this process's std::string containers.
  size_t FootprintBytes() const { return is_int() ? 8 : str().size() + 2; }

  friend bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }

 private:
  std::variant<int64_t, std::string> v_;
};

// One row: an immutable, reference-counted array of column values.
//
// A single allocation holds the reference count, the column count, the
// row's cached footprint (the sum of its values' FootprintBytes) and the
// values themselves. Copying a Row bumps the count and shares that buffer;
// moving one steals it and leaves the source empty. There is no mutating
// accessor, so a shared buffer never changes after construction: the store
// hands its committed rows to readers, scans and write sets by copy, and a
// writer replaces a row by building a new one.
//
// Thread safety: like std::shared_ptr. Distinct Row objects that share a
// buffer may be copied, read and destroyed from any threads at once; one
// Row object must not be assigned on one thread while another reads it.
class Row {
 public:
  Row() noexcept = default;
  Row(std::initializer_list<Value> values) : rep_(Rep::Make(values.size())) {
    Fill(values.begin(), values.end());
  }
  explicit Row(std::vector<Value>&& values) : rep_(Rep::Make(values.size())) {
    Fill(std::make_move_iterator(values.begin()), std::make_move_iterator(values.end()));
  }
  Row(const Row& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Row(Row&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Row& operator=(Row other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Row() { Release(); }

  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const { return size() == 0; }
  const Value& operator[](size_t i) const {
    assert(i < size());
    return begin()[i];
  }
  const Value* begin() const { return rep_ != nullptr ? rep_->values() : nullptr; }
  const Value* end() const { return begin() + size(); }

  // Sum of the values' FootprintBytes, computed once at construction.
  size_t FootprintBytes() const { return rep_ != nullptr ? rep_->footprint : 0; }

  friend bool operator==(const Row& a, const Row& b) {
    return a.rep_ == b.rep_ || std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct Rep {
    std::atomic<uint32_t> refs{1};
    uint32_t size = 0;
    size_t footprint = 0;

    // The values start right after the header.
    Value* values() {
      return reinterpret_cast<Value*>(reinterpret_cast<char*>(this) + sizeof(Rep));
    }
    static Rep* Make(size_t n) {
      if (n == 0) return nullptr;
      assert(n <= UINT32_MAX);
      static_assert(sizeof(Rep) % alignof(Value) == 0);
      return new (::operator new(sizeof(Rep) + n * sizeof(Value))) Rep;
    }
  };

  template <typename It>
  void Fill(It first, It last) {
    if (rep_ == nullptr) return;
    // Values are counted in as they are built, so a throwing copy destroys
    // exactly the ones that exist.
    try {
      for (Value* out = rep_->values(); first != last; ++first, ++out) {
        new (out) Value(*first);
        rep_->footprint += out->FootprintBytes();
        rep_->size++;
      }
    } catch (...) {
      Release();
      throw;
    }
  }

  void Release() noexcept {
    if (rep_ == nullptr) return;
    // A sole owner skips the atomic read-modify-write: nobody else can copy
    // a buffer only this Row refers to.
    if (rep_->refs.load(std::memory_order_acquire) == 1 ||
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Value* values = rep_->values();
      for (uint32_t i = 0; i < rep_->size; ++i) values[i].~Value();
      rep_->~Rep();
      ::operator delete(rep_);
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

using Key = std::vector<Value>;  // values of the PK columns, in PK order

// Appends the order-preserving encoding of `v` to `out`.
void EncodeValue(const Value& v, std::string& out);

// Encodes a full key or a key prefix.
std::string EncodeKey(const Key& key);

// Human-readable rendering for diagnostics.
std::string ToDebugString(const Row& row);

}  // namespace hops::ndb
