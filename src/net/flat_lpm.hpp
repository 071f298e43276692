// FlatLpm<T> — a DIR-24-8 longest-prefix-match table: a PrefixIndex
// (net/prefix_index.hpp: top array, spill blocks, prefix pool,
// exact-match index, result cache) plus one payload column indexed by it.
//
// A table owns its index until another table is built over it
// (FlatLpm(other, column)). From then on the index is shared and
// read-only: an insert into either table throws std::logic_error before
// anything changes, and there is no copy-on-write. Tables over one index
// look up through the same code and fill the same result cache
// (DESIGN.md §11.1). Concurrent lookups are safe; inserts require
// exclusive access. tests/net/flat_lpm_test.cpp holds the table to the
// oracles in tests/support/prefix_trie.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix_index.hpp"

namespace ixp::net {

template <typename T>
class FlatLpm {
 public:
  FlatLpm() : index_(std::make_shared<PrefixIndex>()) {}

  /// A table over `other`'s prefix index with `column[i]` as the payload
  /// of index i. Both tables are read-only from here on. Throws
  /// std::invalid_argument unless the column holds one payload per index.
  template <typename U>
  FlatLpm(const FlatLpm<U>& other, std::vector<T> column)
      : index_(other.index_), values_(std::move(column)) {
    if (values_.size() != index_->size())
      throw std::invalid_argument{"FlatLpm: one payload per index"};
  }

  // Move-only: a copy would share the index and so freeze both tables.
  FlatLpm(FlatLpm&&) noexcept = default;
  FlatLpm& operator=(FlatLpm&&) noexcept = default;
  FlatLpm(const FlatLpm&) = delete;
  FlatLpm& operator=(const FlatLpm&) = delete;

  /// Allocates the top array and the result cache, and pre-sizes the
  /// index and the payload column for `expected` distinct prefixes
  /// (PrefixIndex::reserve).
  void reserve(std::size_t expected) {
    writable_index().reserve(expected);
    values_.reserve(expected);
  }

  /// Inserts or overwrites the payload at `prefix` and returns its index.
  /// The first insert allocates the 64 MiB top array; an empty table
  /// costs nothing.
  std::size_t insert(Ipv4Prefix prefix, T value) {
    const PrefixIndex::Inserted at = writable_index().insert(prefix);
    if (at.fresh) {
      values_.push_back(std::move(value));
    } else {
      values_[at.index] = std::move(value);
    }
    return at.index;
  }

  /// Longest-prefix match, pointer form (PrefixIndex::entry_of). Stable
  /// until the next insert.
  [[nodiscard]] const T* lookup_ptr(Ipv4Addr addr) const noexcept {
    return payload(index_->entry_of(addr));
  }

  [[nodiscard]] std::optional<T> lookup(Ipv4Addr addr) const {
    const T* found = lookup_ptr(addr);
    return found ? std::optional<T>{*found} : std::nullopt;
  }

  /// The most specific stored prefix containing `addr`, with its payload.
  [[nodiscard]] std::optional<std::pair<Ipv4Prefix, T>> lookup_prefix(
      Ipv4Addr addr) const {
    const std::uint32_t entry = index_->entry_of(addr);
    if (entry == PrefixIndex::kNoMatch) return std::nullopt;
    return std::pair<Ipv4Prefix, T>{index_->prefix(entry - 1),
                                    values_[entry - 1]};
  }

  /// Exact-match lookup of a stored prefix.
  [[nodiscard]] const T* find_exact(Ipv4Prefix prefix) const {
    return payload(index_->find(prefix));
  }

  /// Batched lookup: out[i] = lookup_ptr(addrs[i]), through the result
  /// cache and the software-pipelined walk (PrefixIndex::lookup_batch).
  /// Requires out.size() >= addrs.size().
  void lookup_batch(std::span<const Ipv4Addr> addrs,
                    std::span<const T*> out) const noexcept {
    index_->lookup_batch(addrs, out, values_.data());
  }

  /// Distinct stored prefixes.
  [[nodiscard]] std::size_t size() const noexcept { return index_->size(); }

  /// The index in [0, size()) of the stored prefix whose payload a lookup
  /// pointed at: one index per distinct prefix, stable across inserts.
  [[nodiscard]] std::size_t index_of(const T* value) const noexcept {
    return static_cast<std::size_t>(value - values_.data());
  }

  /// True when both tables answer through one prefix index.
  template <typename U>
  [[nodiscard]] bool shares_index_with(const FlatLpm<U>& other) const noexcept {
    return index_ == other.index_;
  }

  /// Spill blocks allocated (each 256 entries = 1 KiB).
  [[nodiscard]] std::size_t spill_blocks() const noexcept {
    return index_->spill_blocks();
  }

  /// Bytes held by the table arrays (the index's top + spill + prefix
  /// pool + cache, and the payload column).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return index_->footprint_bytes() + values_.size() * sizeof(T);
  }

  /// What backs the top array (huge pages or the 4 KiB fallback).
  [[nodiscard]] util::PageBacking top_backing() const noexcept {
    return index_->top_backing();
  }

  /// Visits every stored (prefix, payload) pair ordered by
  /// (network, length) — the same order PrefixTrie::for_each yields.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint32_t i : index_->sorted_order())
      fn(index_->prefix(i), values_[i]);
  }

 private:
  template <typename>
  friend class FlatLpm;

  /// The payload an index entry points at, or nullptr for kNoMatch.
  [[nodiscard]] const T* payload(std::uint32_t entry) const noexcept {
    return entry == PrefixIndex::kNoMatch ? nullptr : &values_[entry - 1];
  }

  /// The index, for an insert: refused once another table shares it.
  PrefixIndex& writable_index() {
    if (index_.use_count() > 1)
      throw std::logic_error{"FlatLpm: insert into a shared prefix index"};
    return *index_;
  }

  std::shared_ptr<PrefixIndex> index_;
  std::vector<T> values_;  // payload column, by index
};

}  // namespace ixp::net
