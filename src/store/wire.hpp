// Little-endian wire primitives for the snapshot codec.
//
// Every multi-byte value in a snapshot file is little-endian regardless
// of host byte order, doubles travel as their IEEE-754 bit patterns, and
// strings are u32-length-prefixed — a fixed, portable byte layout is what
// makes "byte-identical round trip" a testable property rather than an
// accident of the compiler. Each field moves whole: one bounds check and
// one memcpy, with the byte order fixed by std::endian (a swap only on
// big-endian hosts). The Reader never reads past its span: any underrun
// latches ok() false and every subsequent read returns zero, so codec
// decoders can run a straight-line field list and check ok() once at the
// end (truncated or trailing bytes both fail).
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace ixp::store::wire {

/// `v` with its bytes in little-endian order (identity on LE hosts).
template <std::unsigned_integral T>
[[nodiscard]] constexpr T to_le(T v) noexcept {
  if constexpr (std::endian::native == std::endian::little || sizeof(T) == 1) {
    return v;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>((out << 8) | (v & 0xffu));
      v = static_cast<T>(v >> 8);
    }
    return out;
  }
}

class Writer {
 public:
  /// Pre-sizes the buffer. Encoders that can total their output up front
  /// (the snapshot image can, exactly) write with zero reallocation.
  void reserve(std::size_t n) {
    if (out_.size() < n) out_.resize(n);
  }

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    bytes(std::as_bytes(std::span<const char>{v.data(), v.size()}));
  }
  void bytes(std::span<const std::byte> v) { append(v.data(), v.size()); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::vector<std::byte> take() {
    out_.resize(size_);
    size_ = 0;
    return std::move(out_);
  }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    const T le = to_le(v);
    append(&le, sizeof le);
  }

  // out_ is sized ahead of size_ (its bytes past size_ are scratch), so
  // one field is one capacity check and one memcpy.
  void append(const void* p, std::size_t n) {
    if (out_.size() - size_ < n)
      out_.resize(std::max({size_ + n, 2 * out_.size(), std::size_t{256}}));
    if (n > 0) std::memcpy(out_.data() + size_, p, n);
    size_ += n;
  }

  std::vector<std::byte> out_;
  std::size_t size_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  /// A length-prefixed string read in place: the view points into the
  /// span and lives as long as the bytes do. Empty after an underrun.
  [[nodiscard]] std::string_view str_view() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    const std::string_view out{
        reinterpret_cast<const char*>(bytes_.data() + at_), n};
    at_ += n;
    return out;
  }

  /// Bytes not yet read. Decoders divide it by a record's smallest
  /// encoding to bound a count field before reserving for it.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - at_;
  }
  /// True while every read so far stayed inside the span.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when the whole span was consumed (trailing garbage is damage).
  [[nodiscard]] bool at_end() const noexcept {
    return ok_ && at_ == bytes_.size();
  }

 private:
  template <std::unsigned_integral T>
  [[nodiscard]] T get() {
    if (!need(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, bytes_.data() + at_, sizeof v);
    at_ += sizeof v;
    return to_le(v);
  }

  [[nodiscard]] bool need(std::size_t n) {
    if (!ok_ || bytes_.size() - at_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::byte> bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

}  // namespace ixp::store::wire
