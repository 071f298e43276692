// Deterministic trace corruption for robustness testing.
//
// A live collector's stream suffers datagram loss, reordering, and the
// occasional corrupt payload; recorded traces additionally pick up bit
// rot and truncation. FaultInjector reproduces that damage on demand:
// it parses an intact trace, then — driven entirely by a seeded Rng, so
// the same (input, seed, mix) always yields the same corrupted bytes —
// applies a configurable mix of
//   - bit flips inside a record's payload,
//   - datagram truncation (the length prefix promises more than follows),
//   - bogus length prefixes (the payload is intact but unreachable),
//   - duplicated records,
//   - reordered (swapped) adjacent records,
//   - a mid-file EOF that cuts the trace inside a record.
//
// This is the adversary TraceCursor's resynchronization path (DESIGN.md
// §8) is tested against, and what `ixpscope corrupt` exposes on the CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace ixp::sflow {

/// Per-record fault probabilities; all independent except that a record
/// hit by mid-file EOF ends the output. default_mix() spreads a few
/// percent across every kind — enough damage to exercise resync without
/// drowning the trace.
struct FaultMix {
  double bit_flip = 0.0;
  double truncate = 0.0;
  double bogus_length = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double mid_file_eof = 0.0;

  [[nodiscard]] static FaultMix default_mix() noexcept {
    return {0.02, 0.01, 0.01, 0.01, 0.02, 0.0};
  }
  [[nodiscard]] static FaultMix none() noexcept { return {}; }
};

/// What one corruption pass actually did.
struct FaultReport {
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;  ///< records written (duplicates add, EOF cuts)
  std::uint64_t bit_flips = 0;
  std::uint64_t truncations = 0;
  std::uint64_t bogus_lengths = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  bool cut_short = false;  ///< mid-file EOF fired
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

  [[nodiscard]] std::uint64_t faults() const noexcept {
    return bit_flips + truncations + bogus_lengths + duplicates + reorders +
           (cut_short ? 1 : 0);
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed,
                         FaultMix mix = FaultMix::default_mix())
      : seed_(seed), mix_(mix) {}

  /// Corrupts the trace in `bytes` into `out` (cleared first). Returns
  /// nullopt when the input is not a valid ixpscope trace — the injector
  /// only damages traces it can parse, so every fault is intentional.
  std::optional<FaultReport> corrupt(std::span<const std::byte> bytes,
                                     std::vector<std::byte>& out) const;

  // ---- storage blob primitives (the snapshot store's fault profile) ----
  //
  // Unlike corrupt(), these treat the input as an opaque blob: nothing is
  // parsed, so any on-disk artifact — snapshot files included — can be
  // damaged the way real storage damages it (a torn write, a lost tail,
  // a flipped bit, a doubled sector). store::StoreFaultInjector composes
  // them into the per-fault-class snapshot matrix.

  /// Cuts the blob to a random strictly-shorter length in [0, size).
  static void torn_tail(std::vector<std::byte>& blob, util::Rng& rng);

  /// Cuts the blob to exactly `keep` bytes (no-op when keep >= size).
  static void truncate_blob(std::vector<std::byte>& blob, std::size_t keep);

  /// Flips one random bit inside blob[offset, offset + length).
  static void flip_bit_in(std::vector<std::byte>& blob, std::size_t offset,
                          std::size_t length, util::Rng& rng);

  /// Appends a copy of the blob's final `tail_bytes` bytes (a duplicated
  /// footer/sector); no-op when the blob is shorter than that.
  static void duplicate_tail(std::vector<std::byte>& blob,
                             std::size_t tail_bytes);

 private:
  std::uint64_t seed_;
  FaultMix mix_;
};

}  // namespace ixp::sflow
