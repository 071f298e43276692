// FlatHashMap — the open-addressing hash table the per-sample hot path
// runs on.
//
// Every observed sample touches several per-key accumulators (per-IP
// activity, per-AS / per-country tallies, per-agent sequence state).
// std::unordered_map pays a pointer chase and usually a heap allocation
// per distinct key; at IXP scale (~14 PB/day behind a 1:16k sampler)
// that dominates the pipeline. FlatHashMap keeps key/value pairs inline
// in one contiguous slot array:
//
//   - power-of-two capacity, linear probing over a Fibonacci-mixed hash;
//   - tombstone-free erase via backward shift-deletion, so probe chains
//     never accumulate dead slots and lookups stay O(chain);
//   - reserve()/max-load-factor control (grows at MaxLoad full, a
//     std::ratio, 7/8 by default);
//   - heterogeneous lookup: find/count/contains accept any key type the
//     hasher and equality functor take (e.g. std::string_view against
//     InlineString keys) without constructing a K.
//
// Iteration order is a function of the hash function, the capacity, and
// the insertion history — deterministic for a deterministic program but
// NOT sorted; canonical outputs must sort keys, exactly as they already
// do for std::unordered_map (DESIGN.md §7). operator== compares contents
// order-independently, like the standard unordered containers.
//
// Folding one FlatHashMap into another must reserve() the union bound
// first. Iteration walks slots in home-slot order and every map shares
// the same mix, so a fold delivers its keys sorted by their home in the
// destination too. While the destination is smaller than the source (an
// empty one grows from 16), or grows partway through the fold, that
// sorted stream lands on a region already filled at the source's load.
// At high source loads (above about 7/16) the region overfills into one
// long linear-probing run that every later insert walks: quadratic, not
// a constant factor (a 289K-key fold at load 0.55 took 2.65 s instead
// of 13 ms). With the capacity reserved up front, the stream sweeps the
// slot array once at no more than the final load.
//
// Requirements on K and V: movable and default-constructible (empty
// slots hold default-constructed pairs; this keeps the slot storage a
// plain std::vector with no aligned-union juggling). All hot-path keys
// are 4-byte value types, all values small aggregates, so the "wasted"
// default slots cost only the load-factor headroom.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ratio>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ixp::util {

template <class K, class V, class Hash = std::hash<K>,
          class Eq = std::equal_to<>, class MaxLoad = std::ratio<7, 8>>
class FlatHashMap {
  static_assert(MaxLoad::num > 0 && MaxLoad::num < MaxLoad::den,
                "the table must keep a free slot to end every probe");

 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using size_type = std::size_t;

  template <bool Const>
  class Iterator {
   public:
    using map_type = std::conditional_t<Const, const FlatHashMap, FlatHashMap>;
    using value_type = std::pair<K, V>;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;
    using iterator_category = std::forward_iterator_tag;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(map_type* map, size_type index) : map_(map), index_(index) {
      skip_free();
    }
    /// Const iterators construct from mutable ones (begin() vs cbegin()).
    template <bool C = Const, class = std::enable_if_t<C>>
    Iterator(const Iterator<false>& other)  // NOLINT(google-explicit-constructor)
        : map_(other.map_), index_(other.index_) {}

    reference operator*() const { return map_->slots_[index_]; }
    pointer operator->() const { return &map_->slots_[index_]; }

    Iterator& operator++() {
      ++index_;
      skip_free();
      return *this;
    }
    Iterator operator++(int) {
      Iterator out = *this;
      ++*this;
      return out;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class FlatHashMap;
    friend class Iterator<true>;
    void skip_free() {
      while (map_ != nullptr && index_ < map_->slots_.size() &&
             map_->used_[index_] == 0)
        ++index_;
    }
    map_type* map_ = nullptr;
    size_type index_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  FlatHashMap() = default;
  explicit FlatHashMap(size_type expected) { reserve(expected); }

  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] size_type capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] float load_factor() const noexcept {
    return slots_.empty() ? 0.0f
                          : static_cast<float>(size_) /
                                static_cast<float>(slots_.size());
  }

  iterator begin() { return iterator{this, 0}; }
  iterator end() { return iterator{this, slots_.size()}; }
  const_iterator begin() const {
    return const_iterator{this, 0};
  }
  const_iterator end() const { return const_iterator{this, slots_.size()}; }
  const_iterator cbegin() const { return begin(); }
  const_iterator cend() const { return end(); }

  /// Grows (never shrinks) so `expected` entries fit without rehashing.
  void reserve(size_type expected) {
    size_type cap = kMinCapacity;
    // cap must satisfy expected <= cap * MaxLoad.
    while (cap * MaxLoad::num / MaxLoad::den < expected) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  void clear() noexcept {
    for (size_type i = 0; i < slots_.size(); ++i) {
      if (used_[i]) slots_[i] = value_type{};
      used_[i] = 0;
    }
    size_ = 0;
  }

  /// Heterogeneous lookup: any `key` the hasher/equality accept.
  template <class K2>
  [[nodiscard]] iterator find(const K2& key) {
    const size_type i = find_slot(key);
    return i == npos ? end() : iterator{this, i};
  }
  template <class K2>
  [[nodiscard]] const_iterator find(const K2& key) const {
    const size_type i = find_slot(key);
    return i == npos ? end() : const_iterator{this, i};
  }
  template <class K2>
  [[nodiscard]] size_type count(const K2& key) const {
    return find_slot(key) == npos ? 0 : 1;
  }
  template <class K2>
  [[nodiscard]] bool contains(const K2& key) const {
    return find_slot(key) != npos;
  }

  /// Hints the cache that `key`'s home slot is about to be probed. Flat
  /// storage makes the target address computable from the key alone —
  /// issue this early, do independent work, then look up with the miss
  /// latency already (partly) paid. Node-based maps cannot offer this.
  template <class K2>
  void prefetch(const K2& key) const noexcept {
    if (slots_.empty()) return;
    const size_type home = home_of(key);
    __builtin_prefetch(&used_[home]);
    __builtin_prefetch(&slots_[home]);
  }

  template <class K2>
  [[nodiscard]] V& at(const K2& key) {
    const size_type i = find_slot(key);
    if (i == npos) throw std::out_of_range{"FlatHashMap::at"};
    return slots_[i].second;
  }
  template <class K2>
  [[nodiscard]] const V& at(const K2& key) const {
    const size_type i = find_slot(key);
    if (i == npos) throw std::out_of_range{"FlatHashMap::at"};
    return slots_[i].second;
  }

  V& operator[](const K& key) {
    return try_emplace(key).first->second;
  }

  /// Inserts {key, V{args...}} unless `key` is present; returns the slot
  /// and whether an insert happened — std::unordered_map semantics.
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    grow_if_needed();
    size_type i = home_of(key);
    while (used_[i]) {
      if (eq_(slots_[i].first, key)) return {iterator{this, i}, false};
      i = (i + 1) & mask_;
    }
    slots_[i].first = key;
    slots_[i].second = V(std::forward<Args>(args)...);
    used_[i] = 1;
    ++size_;
    return {iterator{this, i}, true};
  }

  std::pair<iterator, bool> insert(const value_type& kv) {
    return try_emplace(kv.first, kv.second);
  }
  std::pair<iterator, bool> insert(value_type&& kv) {
    return try_emplace(kv.first, std::move(kv.second));
  }
  template <class... Args>
  std::pair<iterator, bool> emplace(Args&&... args) {
    return insert(value_type(std::forward<Args>(args)...));
  }

  /// Tombstone-free erase: backward shift-deletion. Walks the probe
  /// chain after the hole and moves back every entry whose home bucket
  /// lies at or before the hole, so no chain is ever broken and no
  /// tombstone is left to slow later probes.
  template <class K2>
  size_type erase(const K2& key) {
    size_type hole = find_slot(key);
    if (hole == npos) return 0;
    used_[hole] = 0;
    slots_[hole] = value_type{};
    --size_;
    size_type i = hole;
    while (true) {
      i = (i + 1) & mask_;
      if (!used_[i]) break;
      const size_type home = home_of(slots_[i].first);
      // Move back iff the hole lies within [home, i] cyclically —
      // i.e. the element's probe chain passes through the hole.
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = std::move(slots_[i]);
        used_[hole] = 1;
        slots_[i] = value_type{};
        used_[i] = 0;
        hole = i;
      }
    }
    return 1;
  }

  /// Order-independent content equality (std::unordered_map semantics).
  friend bool operator==(const FlatHashMap& a, const FlatHashMap& b) {
    if (a.size_ != b.size_) return false;
    for (const auto& [key, value] : a) {
      const size_type i = b.find_slot(key);
      if (i == npos || !(b.slots_[i].second == value)) return false;
    }
    return true;
  }
  friend bool operator!=(const FlatHashMap& a, const FlatHashMap& b) {
    return !(a == b);
  }

 private:
  static constexpr size_type npos = static_cast<size_type>(-1);
  static constexpr size_type kMinCapacity = 16;

  /// Fibonacci finalizer: identity-style hashes (std::hash of integers)
  /// land sequential keys in sequential buckets, which linear probing
  /// turns into one long chain. One multiply + shift spreads them.
  [[nodiscard]] static size_type mix(std::size_t h) noexcept {
    std::uint64_t x = static_cast<std::uint64_t>(h);
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 32;
    return static_cast<size_type>(x);
  }

  template <class K2>
  [[nodiscard]] size_type home_of(const K2& key) const {
    return mix(hash_(key)) & mask_;
  }

  template <class K2>
  [[nodiscard]] size_type find_slot(const K2& key) const {
    if (slots_.empty()) return npos;
    size_type i = home_of(key);
    while (used_[i]) {
      if (eq_(slots_[i].first, key)) return i;
      i = (i + 1) & mask_;
    }
    return npos;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * MaxLoad::den > slots_.size() * MaxLoad::num) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(size_type new_capacity) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.clear();
    slots_.resize(new_capacity);
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (size_type i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      // Keys are unique, so probe straight to the first free slot.
      size_type j = home_of(old_slots[i].first);
      while (used_[j]) j = (j + 1) & mask_;
      slots_[j] = std::move(old_slots[i]);
      used_[j] = 1;
      ++size_;
    }
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> used_;
  size_type size_ = 0;
  size_type mask_ = 0;
  [[no_unique_address]] Hash hash_{};
  [[no_unique_address]] Eq eq_{};
};

}  // namespace ixp::util
