// SnapshotCodec — canonical byte layout for WeekShard and WeeklyReport.
//
// The codec turns a finished week into the section payloads the
// SnapshotStore seals, and back. Two properties carry the durability
// story:
//
//   1. Canonical form. Hash-map iteration order is not deterministic, so
//      the encoders sort every table (activity by address, hosts by
//      (first_seq, name), country/AS tallies by key) before writing.
//      Encoding the same logical state always yields the same bytes —
//      which is what lets tests assert "resumed run == uninterrupted
//      run" at the byte level.
//
//   2. Lossless round trip. A decoded report re-encodes to the same bytes.
//
// Snapshots hold a report and a provenance record, so only those two
// decode. encode_shard has no decoder: it is the canonical form the
// engine's byte-identity tests compare shards in.
//
// Decoders are strict: any underrun, trailing bytes, or unparsable
// embedded value (DNS name, URI) fails the decode — by the time bytes
// reach the codec they have already passed the store's CRCs, so a decode
// failure means a format bug, not disk damage.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/vantage_point.hpp"
#include "core/week_shard.hpp"
#include "store/provenance.hpp"

namespace ixp::store {

class SnapshotCodec {
 public:
  /// Serializes a shard's merged observation state (filter counters,
  /// dissector evidence, sample count) in canonical order.
  [[nodiscard]] static std::vector<std::byte> encode_shard(
      const core::WeekShard& shard);

  /// Serializes a finished week's report in canonical order.
  [[nodiscard]] static std::vector<std::byte> encode_report(
      const core::WeeklyReport& report);

  /// Returns nullopt on malformed bytes.
  [[nodiscard]] static std::optional<core::WeeklyReport> decode_report(
      std::span<const std::byte> bytes);

  /// Serializes the provenance record (DESIGN.md §16) — the fingerprint
  /// of everything the week's output is a pure function of.
  [[nodiscard]] static std::vector<std::byte> encode_provenance(
      const Provenance& provenance);

  /// Returns nullopt on malformed bytes.
  [[nodiscard]] static std::optional<Provenance> decode_provenance(
      std::span<const std::byte> bytes);
};

}  // namespace ixp::store
