#include "classify/lane_flags.hpp"

#include "classify/dissector.hpp"
#include "classify/http_matcher.hpp"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace ixp::classify {

namespace {

constexpr std::uint8_t kReq = static_cast<std::uint8_t>(HttpIndication::kRequest);
constexpr std::uint8_t kResp =
    static_cast<std::uint8_t>(HttpIndication::kResponse);
constexpr std::uint8_t kHdr =
    static_cast<std::uint8_t>(HttpIndication::kHeaderOnly);

/// One sample, branch form — the semantics contract of the discovery
/// pass's evidence rule (tests/support/dissector_oracle restates it per
/// sample): port evidence gated on TCP, indication evidence not (the
/// matcher never fires on non-TCP anyway).
inline void scalar_lane(std::uint16_t sp, std::uint16_t dp, std::uint8_t tcp,
                        std::uint8_t ind, std::uint8_t& sf,
                        std::uint8_t& df) noexcept {
  std::uint8_t s = 0;
  std::uint8_t d = 0;
  if (tcp != 0) {
    if (sp == 443) s |= kCandidate443;
    if (dp == 443) d |= kCandidate443;
    if (sp == 1935) s |= kSeenRtmp1935;
    if (dp == 1935) d |= kSeenRtmp1935;
  }
  const std::uint8_t ssrv80 = sp == 8080 ? kSeenPort8080 : kSeenPort80;
  const std::uint8_t dsrv80 = dp == 8080 ? kSeenPort8080 : kSeenPort80;
  if (ind == kReq) {
    d |= kSeenHttpServer | dsrv80;
    s |= kSeenHttpClient;
  } else if (ind == kResp) {
    s |= kSeenHttpServer | ssrv80;
    d |= kSeenHttpClient;
  } else if (ind == kHdr) {
    const bool ssrvish = sp == 80 || sp == 8080 || sp == 443;
    const bool dsrvish = dp == 80 || dp == 8080 || dp == 443;
    if (ssrvish && !dsrvish) {
      s |= kSeenHttpServer | ssrv80;
      d |= kSeenHttpClient;
    } else if (dsrvish && !ssrvish) {
      d |= kSeenHttpServer | dsrv80;
      s |= kSeenHttpClient;
    }
  }
  sf = s;
  df = d;
}

#ifdef __SSE2__

/// The lane algebra on one 8-wide half, everything in 16-bit lanes.
/// `t`, `req`, `resp`, `hdr` are 0/0xFFFF lane masks; ports are raw.
/// Restated from scalar_lane:
///   s = t&((sp==443)?C443:0 | (sp==1935)?RTMP:0)
///     | (req|hdrD)&CLIENT | (resp|hdrS)&(SERVER|ssrv80)
/// where hdrS = hdr & srvish(sp) & ~srvish(dp), hdrD mirrored, and
/// ssrv80 selects the 8080 bit over the 80 bit. d is the mirror image.
struct LaneHalf {
  __m128i s;
  __m128i d;
};

inline LaneHalf lane_half_sse2(__m128i sp, __m128i dp, __m128i t, __m128i req,
                               __m128i resp, __m128i hdr) noexcept {
  const __m128i e443s = _mm_cmpeq_epi16(sp, _mm_set1_epi16(443));
  const __m128i e443d = _mm_cmpeq_epi16(dp, _mm_set1_epi16(443));
  const __m128i e1935s = _mm_cmpeq_epi16(sp, _mm_set1_epi16(1935));
  const __m128i e1935d = _mm_cmpeq_epi16(dp, _mm_set1_epi16(1935));
  const __m128i e80s = _mm_cmpeq_epi16(sp, _mm_set1_epi16(80));
  const __m128i e80d = _mm_cmpeq_epi16(dp, _mm_set1_epi16(80));
  const __m128i e8080s = _mm_cmpeq_epi16(sp, _mm_set1_epi16(8080));
  const __m128i e8080d = _mm_cmpeq_epi16(dp, _mm_set1_epi16(8080));

  const __m128i ssrvish = _mm_or_si128(_mm_or_si128(e80s, e8080s), e443s);
  const __m128i dsrvish = _mm_or_si128(_mm_or_si128(e80d, e8080d), e443d);
  const __m128i hdr_s = _mm_andnot_si128(dsrvish, _mm_and_si128(hdr, ssrvish));
  const __m128i hdr_d = _mm_andnot_si128(ssrvish, _mm_and_si128(hdr, dsrvish));

  const __m128i ssrv80 =
      _mm_or_si128(_mm_and_si128(e8080s, _mm_set1_epi16(kSeenPort8080)),
                   _mm_andnot_si128(e8080s, _mm_set1_epi16(kSeenPort80)));
  const __m128i dsrv80 =
      _mm_or_si128(_mm_and_si128(e8080d, _mm_set1_epi16(kSeenPort8080)),
                   _mm_andnot_si128(e8080d, _mm_set1_epi16(kSeenPort80)));

  const __m128i port_s = _mm_and_si128(
      t, _mm_or_si128(_mm_and_si128(e443s, _mm_set1_epi16(kCandidate443)),
                      _mm_and_si128(e1935s, _mm_set1_epi16(kSeenRtmp1935))));
  const __m128i port_d = _mm_and_si128(
      t, _mm_or_si128(_mm_and_si128(e443d, _mm_set1_epi16(kCandidate443)),
                      _mm_and_si128(e1935d, _mm_set1_epi16(kSeenRtmp1935))));

  const __m128i server_s = _mm_and_si128(
      _mm_or_si128(resp, hdr_s),
      _mm_or_si128(_mm_set1_epi16(kSeenHttpServer), ssrv80));
  const __m128i server_d = _mm_and_si128(
      _mm_or_si128(req, hdr_d),
      _mm_or_si128(_mm_set1_epi16(kSeenHttpServer), dsrv80));
  const __m128i client_s = _mm_and_si128(_mm_or_si128(req, hdr_d),
                                         _mm_set1_epi16(kSeenHttpClient));
  const __m128i client_d = _mm_and_si128(_mm_or_si128(resp, hdr_s),
                                         _mm_set1_epi16(kSeenHttpClient));

  return {_mm_or_si128(port_s, _mm_or_si128(server_s, client_s)),
          _mm_or_si128(port_d, _mm_or_si128(server_d, client_d))};
}

#endif  // __SSE2__

}  // namespace

#ifdef __SSE2__

namespace detail {

/// SSE2: 16 samples per step — two 8-wide halves packed to 16 bytes.
void lane_flags_sse2(const std::uint16_t* src_port,
                     const std::uint16_t* dst_port, const std::uint8_t* tcp,
                     const std::uint8_t* indication, std::size_t n,
                     std::uint8_t* src_flags,
                     std::uint8_t* dst_flags) noexcept {
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i tcp8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tcp + i));
    const __m128i ind8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(indication + i));
    // 0/nonzero byte -> 0/0xFFFF lane mask (tcp bytes are 0 or 1).
    const __m128i t16 = _mm_xor_si128(_mm_cmpeq_epi8(tcp8, zero),
                                      _mm_set1_epi8(-1));
    const __m128i req8 = _mm_cmpeq_epi8(ind8, _mm_set1_epi8(kReq));
    const __m128i resp8 = _mm_cmpeq_epi8(ind8, _mm_set1_epi8(kResp));
    const __m128i hdr8 = _mm_cmpeq_epi8(ind8, _mm_set1_epi8(kHdr));

    const LaneHalf lo = lane_half_sse2(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src_port + i)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst_port + i)),
        _mm_unpacklo_epi8(t16, t16), _mm_unpacklo_epi8(req8, req8),
        _mm_unpacklo_epi8(resp8, resp8), _mm_unpacklo_epi8(hdr8, hdr8));
    const LaneHalf hi = lane_half_sse2(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src_port + i + 8)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst_port + i + 8)),
        _mm_unpackhi_epi8(t16, t16), _mm_unpackhi_epi8(req8, req8),
        _mm_unpackhi_epi8(resp8, resp8), _mm_unpackhi_epi8(hdr8, hdr8));

    // Lanes only carry bits <= 0x31, so unsigned saturation is exact.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(src_flags + i),
                     _mm_packus_epi16(lo.s, hi.s));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst_flags + i),
                     _mm_packus_epi16(lo.d, hi.d));
  }
  for (; i < n; ++i)
    scalar_lane(src_port[i], dst_port[i], tcp[i], indication[i], src_flags[i],
                dst_flags[i]);
}

}  // namespace detail

#endif  // __SSE2__

void LaneFlags::compute_scalar(const std::uint16_t* src_port,
                               const std::uint16_t* dst_port,
                               const std::uint8_t* tcp,
                               const std::uint8_t* indication, std::size_t n,
                               std::uint8_t* src_flags,
                               std::uint8_t* dst_flags) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    scalar_lane(src_port[i], dst_port[i], tcp[i], indication[i], src_flags[i],
                dst_flags[i]);
}

void LaneFlags::compute(const std::uint16_t* src_port,
                        const std::uint16_t* dst_port, const std::uint8_t* tcp,
                        const std::uint8_t* indication, std::size_t n,
                        std::uint8_t* src_flags,
                        std::uint8_t* dst_flags) noexcept {
#ifdef __SSE2__
  detail::lane_flags_sse2(src_port, dst_port, tcp, indication, n, src_flags,
                          dst_flags);
#else
  compute_scalar(src_port, dst_port, tcp, indication, n, src_flags, dst_flags);
#endif
}

}  // namespace ixp::classify
