#include "sflow/fault_injector.hpp"

#include <algorithm>
#include <cstring>

#include "sflow/trace.hpp"

namespace ixp::sflow {

namespace {

constexpr std::size_t kHeaderBytes = sizeof kTraceMagic + 4;

std::uint32_t read_be32(const std::byte* p) {
  return (std::to_integer<std::uint32_t>(p[0]) << 24) |
         (std::to_integer<std::uint32_t>(p[1]) << 16) |
         (std::to_integer<std::uint32_t>(p[2]) << 8) |
         std::to_integer<std::uint32_t>(p[3]);
}

void append_be32(std::vector<std::byte>& out, std::uint32_t v) {
  out.push_back(static_cast<std::byte>(v >> 24));
  out.push_back(static_cast<std::byte>((v >> 16) & 0xff));
  out.push_back(static_cast<std::byte>((v >> 8) & 0xff));
  out.push_back(static_cast<std::byte>(v & 0xff));
}

/// Splits an intact trace into its record payloads; nullopt on any
/// framing damage (the injector refuses inputs it cannot fully parse).
std::optional<std::vector<std::vector<std::byte>>> parse_records(
    std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kTraceMagic, sizeof kTraceMagic) != 0)
    return std::nullopt;
  if (read_be32(bytes.data() + sizeof kTraceMagic) != kTraceVersion)
    return std::nullopt;

  std::vector<std::vector<std::byte>> records;
  std::size_t at = kHeaderBytes;
  while (at < bytes.size()) {
    if (at + 4 > bytes.size()) return std::nullopt;
    const std::uint32_t length = read_be32(bytes.data() + at);
    at += 4;
    if (length == 0 || at + length > bytes.size()) return std::nullopt;
    records.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                         bytes.begin() + static_cast<std::ptrdiff_t>(at + length));
    at += length;
  }
  return records;
}

}  // namespace

std::optional<FaultReport> FaultInjector::corrupt(
    std::span<const std::byte> bytes, std::vector<std::byte>& out) const {
  auto records = parse_records(bytes);
  if (!records) return std::nullopt;

  FaultReport report;
  report.records_in = records->size();
  report.bytes_in = bytes.size();

  util::Rng root{seed_};
  util::Rng order_rng = root.fork(1);
  util::Rng emit_rng = root.fork(2);
  util::Rng payload_rng = root.fork(3);

  // Phase 1: swap adjacent records (collector-style reordering).
  for (std::size_t i = 0; i + 1 < records->size(); ++i) {
    if (order_rng.next_bool(mix_.reorder)) {
      std::swap((*records)[i], (*records)[i + 1]);
      ++report.reorders;
      ++i;  // a swapped pair is settled; don't swap its tail again
    }
  }

  // Phase 2: emit, with per-record payload damage.
  out.clear();
  out.reserve(bytes.size() + bytes.size() / 8);
  out.insert(out.end(), bytes.begin(),
             bytes.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes));

  const auto emit = [&](const std::vector<std::byte>& payload) {
    const auto length = static_cast<std::uint32_t>(payload.size());
    // At most one framing fault per emission; a record that keeps its
    // framing may still take bit flips.
    if (payload_rng.next_bool(mix_.bogus_length)) {
      std::uint32_t bogus;
      switch (payload_rng.next_below(3)) {
        case 0:
          bogus = 0;
          break;
        case 1:
          bogus = kMaxDatagramBytes + 1 +
                  static_cast<std::uint32_t>(payload_rng.next_below(1u << 16));
          break;
        default: {
          const auto delta =
              static_cast<std::uint32_t>(1 + payload_rng.next_below(32));
          bogus = payload_rng.next_bool(0.5) ? length + delta
                  : length > delta          ? length - delta
                                            : length + delta;
          break;
        }
      }
      append_be32(out, bogus);
      out.insert(out.end(), payload.begin(), payload.end());
      ++report.bogus_lengths;
      ++report.records_out;
      return;
    }
    if (payload_rng.next_bool(mix_.truncate) && payload.size() > 1) {
      // The prefix promises `length` bytes but delivers fewer: the reader
      // consumes into the next record and must resynchronize.
      const auto keep =
          static_cast<std::size_t>(payload_rng.next_below(payload.size()));
      append_be32(out, length);
      out.insert(out.end(), payload.begin(),
                 payload.begin() + static_cast<std::ptrdiff_t>(keep));
      ++report.truncations;
      ++report.records_out;
      return;
    }
    std::vector<std::byte> body = payload;
    if (payload_rng.next_bool(mix_.bit_flip)) {
      const auto flips = 1 + payload_rng.next_below(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const auto bit = payload_rng.next_below(body.size() * 8);
        body[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      }
      ++report.bit_flips;
    }
    append_be32(out, length);
    out.insert(out.end(), body.begin(), body.end());
    ++report.records_out;
  };

  for (const auto& payload : *records) {
    if (emit_rng.next_bool(mix_.mid_file_eof)) {
      // Cut the file inside this record: full length prefix, partial body.
      const auto keep =
          static_cast<std::size_t>(emit_rng.next_below(payload.size()));
      append_be32(out, static_cast<std::uint32_t>(payload.size()));
      out.insert(out.end(), payload.begin(),
                 payload.begin() + static_cast<std::ptrdiff_t>(keep));
      report.cut_short = true;
      ++report.records_out;
      break;
    }
    const bool duplicate = emit_rng.next_bool(mix_.duplicate);
    emit(payload);
    if (duplicate) {
      emit(payload);
      ++report.duplicates;
    }
  }

  report.bytes_out = out.size();
  return report;
}

void FaultInjector::torn_tail(std::vector<std::byte>& blob, util::Rng& rng) {
  if (blob.empty()) return;
  blob.resize(static_cast<std::size_t>(rng.next_below(blob.size())));
}

void FaultInjector::truncate_blob(std::vector<std::byte>& blob,
                                  std::size_t keep) {
  if (keep < blob.size()) blob.resize(keep);
}

void FaultInjector::flip_bit_in(std::vector<std::byte>& blob,
                                std::size_t offset, std::size_t length,
                                util::Rng& rng) {
  if (offset >= blob.size()) return;
  length = std::min(length, blob.size() - offset);
  if (length == 0) return;
  const auto bit = static_cast<std::size_t>(rng.next_below(length * 8));
  blob[offset + bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

void FaultInjector::duplicate_tail(std::vector<std::byte>& blob,
                                   std::size_t tail_bytes) {
  if (tail_bytes == 0 || blob.size() < tail_bytes) return;
  const std::size_t start = blob.size() - tail_bytes;
  // Append via index loop: push_back may reallocate, invalidating any
  // iterator into the tail being copied.
  for (std::size_t i = 0; i < tail_bytes; ++i)
    blob.push_back(blob[start + i]);
}

}  // namespace ixp::sflow
