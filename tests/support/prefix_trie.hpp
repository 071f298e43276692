// Longest-prefix-match oracles for net::FlatLpm.
//
// PrefixTrie<T> is a pooled binary trie keyed by Ipv4Prefix: O(length)
// insert/lookup, cache-friendly node storage, no per-node allocation.
// LengthIndexedLpm<T> is the classic alternative (one hash table per prefix
// length, probed longest-first). Neither ships: both are correctness
// oracles for the flat table's tests and the comparison points of the
// micro_net benchmark (DESIGN.md ablation #4).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ipv4.hpp"

namespace ixp::net {

/// Binary trie over IPv4 prefixes with payloads of type T.
/// Left child = 0 bit, right child = 1 bit, walking from the MSB.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.emplace_back(); }

  /// Inserts or overwrites the payload at `prefix`.
  void insert(Ipv4Prefix prefix, T value) {
    std::uint32_t node = 0;
    const std::uint32_t bits = prefix.network().value();
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      std::uint32_t& child = nodes_[node].child[bit];
      if (child == kNone) {
        child = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      node = nodes_[node].child[bit];
    }
    if (!nodes_[node].value.has_value()) ++size_;
    nodes_[node].value = std::move(value);
  }

  /// Longest-prefix match: the payload of the most specific prefix
  /// containing `addr`, or nullopt when nothing matches.
  [[nodiscard]] std::optional<T> lookup(Ipv4Addr addr) const {
    const T* found = lookup_ptr(addr);
    return found ? std::optional<T>{*found} : std::nullopt;
  }

  /// Pointer-returning variant for hot paths (no copy). Stable until the
  /// next insert.
  [[nodiscard]] const T* lookup_ptr(Ipv4Addr addr) const {
    std::uint32_t node = 0;
    const T* best = nodes_[0].value ? &*nodes_[0].value : nullptr;
    const std::uint32_t bits = addr.value();
    for (int depth = 0; depth < 32; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      const std::uint32_t child = nodes_[node].child[bit];
      if (child == kNone) break;
      node = child;
      if (nodes_[node].value) best = &*nodes_[node].value;
    }
    return best;
  }

  /// Exact-match lookup of a stored prefix.
  [[nodiscard]] const T* find_exact(Ipv4Prefix prefix) const {
    std::uint32_t node = 0;
    const std::uint32_t bits = prefix.network().value();
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      const std::uint32_t child = nodes_[node].child[bit];
      if (child == kNone) return nullptr;
      node = child;
    }
    return nodes_[node].value ? &*nodes_[node].value : nullptr;
  }

  /// The most specific stored prefix containing `addr`, with its payload.
  [[nodiscard]] std::optional<std::pair<Ipv4Prefix, T>> lookup_prefix(
      Ipv4Addr addr) const {
    std::uint32_t node = 0;
    std::optional<std::pair<Ipv4Prefix, T>> best;
    if (nodes_[0].value) best = {Ipv4Prefix{Ipv4Addr{0}, 0}, *nodes_[0].value};
    const std::uint32_t bits = addr.value();
    for (int depth = 0; depth < 32; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      const std::uint32_t child = nodes_[node].child[bit];
      if (child == kNone) break;
      node = child;
      if (nodes_[node].value) {
        const auto len = static_cast<std::uint8_t>(depth + 1);
        best = {Ipv4Prefix{addr, len}, *nodes_[node].value};
      }
    }
    return best;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Visits every stored (prefix, payload) pair in lexicographic order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    walk(0, 0u, 0, fn);
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    std::uint32_t child[2] = {kNone, kNone};
    std::optional<T> value;
  };

  template <typename Fn>
  void walk(std::uint32_t node, std::uint32_t bits, std::uint8_t depth,
            Fn& fn) const {
    if (nodes_[node].value)
      fn(Ipv4Prefix{Ipv4Addr{bits}, depth}, *nodes_[node].value);
    for (int bit = 0; bit < 2; ++bit) {
      const std::uint32_t child = nodes_[node].child[bit];
      if (child == kNone) continue;
      const std::uint32_t child_bits =
          bits | (static_cast<std::uint32_t>(bit) << (31 - depth));
      walk(child, child_bits, static_cast<std::uint8_t>(depth + 1), fn);
    }
  }

  std::vector<Node> nodes_;
  std::size_t size_ = 0;
};

/// Reference LPM: one hash table per prefix length, probed from /32 down.
/// Simple and obviously correct; slower on sparse tables.
template <typename T>
class LengthIndexedLpm {
 public:
  void insert(Ipv4Prefix prefix, T value) {
    auto [it, inserted] =
        tables_[prefix.length()].insert_or_assign(prefix.network().value(),
                                                  std::move(value));
    (void)it;
    if (inserted) ++size_;
    if (prefix.length() > max_length_) max_length_ = prefix.length();
  }

  [[nodiscard]] std::optional<T> lookup(Ipv4Addr addr) const {
    for (int length = max_length_; length >= 0; --length) {
      const auto& table = tables_[static_cast<std::size_t>(length)];
      if (table.empty()) continue;
      const std::uint32_t mask =
          length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
      const auto it = table.find(addr.value() & mask);
      if (it != table.end()) return it->second;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::unordered_map<std::uint32_t, T> tables_[33];
  std::size_t size_ = 0;
  int max_length_ = 0;
};

}  // namespace ixp::net
