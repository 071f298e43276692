// LaneFlags — lane-wise evidence-bit extraction from FrameBatch arrays.
//
// The discovery pass's evidence rule (request/response/header-only ×
// port tests), written as a per-sample switch, costs more in branch
// mispredicts than in arithmetic: a realistic traffic mix keeps every
// branch unpredictable. This kernel states the whole decision as
// bitwise algebra over the SoA port / transport / indication arrays and
// evaluates it 16 samples per step (SSE2, chosen at compile time
// wherever the target has it), writing one evidence byte per endpoint.
// The dissector's table-update pass then runs with no data-dependent
// branches at all (DESIGN.md §14).
//
// compute_scalar is the oracle: the SSE2 form is held byte-identical
// to it by the differential fuzz suite
// (tests/classify/lane_flags_differential_test.cpp) on arbitrary inputs,
// including non-TCP samples and every indication value.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ixp::classify {

class LaneFlags {
 public:
  /// Computes the per-sample evidence bytes the dissector ORs into the
  /// source and destination IpActivity entries: candidate-443 / RTMP
  /// port evidence (TCP only) plus the HTTP server/client/port bits
  /// implied by the sample's HttpIndication. All arrays hold `n`
  /// index-aligned entries; `src_flags`/`dst_flags` are fully written.
  [[gnu::hot]] static void compute(const std::uint16_t* src_port,
                                   const std::uint16_t* dst_port,
                                   const std::uint8_t* tcp,
                                   const std::uint8_t* indication,
                                   std::size_t n, std::uint8_t* src_flags,
                                   std::uint8_t* dst_flags) noexcept;

  /// The scalar reference the SSE2 path is tested against, and the only
  /// path on targets without SSE2. Hot like compute(), so the tier A/B in
  /// micro_hotpath does not move with unrelated link-layout shifts.
  [[gnu::hot]] static void compute_scalar(const std::uint16_t* src_port,
                                          const std::uint16_t* dst_port,
                                          const std::uint8_t* tcp,
                                          const std::uint8_t* indication,
                                          std::size_t n,
                                          std::uint8_t* src_flags,
                                          std::uint8_t* dst_flags) noexcept;
};

namespace detail {

#ifdef __SSE2__
/// The SSE2 kernel behind LaneFlags::compute, exposed so the
/// micro_hotpath A/B and the differential suite can pin it directly.
void lane_flags_sse2(const std::uint16_t* src_port,
                     const std::uint16_t* dst_port, const std::uint8_t* tcp,
                     const std::uint8_t* indication, std::size_t n,
                     std::uint8_t* src_flags, std::uint8_t* dst_flags) noexcept;
#endif

}  // namespace detail

}  // namespace ixp::classify
