// Provenance — what a week's snapshot is a pure function of.
//
// A snapshot is only reusable if nothing it depends on has changed. The
// provenance section records exactly that dependency set as two 64-bit
// fingerprints plus the frame they live in:
//
//   - model_fingerprint: the synthetic-Internet configuration (every
//     ScaleConfig knob including the seed — gen::ScaleConfig::fingerprint()).
//     A model tweak invalidates every week computed under the old model.
//   - ingest_fingerprint: the ingest policy the samples flowed through
//     (error budget, batch framing). Thread count is deliberately NOT
//     part of it — reports are byte-identical for any thread or job
//     count, so parallelism never invalidates a snapshot.
//   - format_version / week: the frame. The format version is also in
//     the file header (a mismatch quarantines before provenance is ever
//     read); repeating it here makes the provenance payload
//     self-describing when inspected in quarantine.
//
// On re-run, a durable week whose stored provenance equals the expected
// provenance is skipped (resume); a mismatch is stale — quarantined with
// the `stale-provenance` tag and recomputed, the same never-delete path
// storage rot takes.
#pragma once

#include <cstdint>

namespace ixp::store {

struct Provenance {
  std::uint32_t format_version = 0;
  std::int32_t week = 0;
  std::uint64_t model_fingerprint = 0;
  std::uint64_t ingest_fingerprint = 0;

  /// The resume test: same inputs, same frame.
  friend bool operator==(const Provenance&, const Provenance&) = default;

  /// One digest of the whole record, for log lines and bench labels.
  [[nodiscard]] std::uint64_t combined() const noexcept;
};

}  // namespace ixp::store
