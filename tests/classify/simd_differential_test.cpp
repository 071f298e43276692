// Differential fuzz suites for the SIMD hot-path kernels (DESIGN.md §14):
// the vector tier must be byte-identical to its scalar oracle on clean,
// truncated, unaligned, and non-ASCII inputs.
//
//   - HttpMatcher::match, plus the SSE2 policy directly where the target
//     has SSE2, vs match_scalar;
//   - LaneFlags::compute, plus the pinned SSE2 lane kernel where the
//     target has SSE2, vs LaneFlags::compute_scalar.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "classify/http_match_impl.hpp"
#include "classify/http_matcher.hpp"
#include "classify/lane_flags.hpp"
#include "util/rng.hpp"

namespace ixp::classify {
namespace {

// ---- HttpMatcher ---------------------------------------------------------

/// Compares two matches on the same payload: equal indication, and host/
/// path views that are the same bytes at the same payload offsets (view
/// identity, not just content).
void expect_match_eq(std::string_view payload, const HttpMatch& got,
                     const HttpMatch& want, const char* tier) {
  ASSERT_EQ(static_cast<int>(got.indication), static_cast<int>(want.indication))
      << tier << " payload: " << std::string(payload.substr(0, 60));
  EXPECT_EQ(got.host.data(), want.host.data()) << tier;
  EXPECT_EQ(got.host.size(), want.host.size()) << tier;
  EXPECT_EQ(got.path.data(), want.path.data()) << tier;
  EXPECT_EQ(got.path.size(), want.path.size()) << tier;
}

void expect_all_tiers_agree(std::string_view payload) {
  const HttpMatch want = HttpMatcher::match_scalar(payload);
  expect_match_eq(payload, HttpMatcher::match(payload), want, "match");
#ifdef __SSE2__
  expect_match_eq(payload, detail::match_impl<detail::Sse2Policy>(payload),
                  want, "sse2");
#endif
}

/// HTTP-shaped corpus fragments the fuzzer splices and mutates.
const char* const kFragments[] = {
    "GET / HTTP/1.1\r\n",
    "GET /index.html?q=Host:fake.example HTTP/1.1\r\n",
    "POST /submit HTTP/1.0\r\n",
    "CONNECT proxy.example:443 HTTP/1.1\r\n",
    "HTTP/1.1 200 OK\r\n",
    "HTTP/1.0 404 Not Found\r\n",
    "Host: www.example.com\r\n",
    "Host:no-space.example\r\n",
    "X-Forwarded-Host: hidden.example\r\n",
    "Server: nginx/1.2.1\r\n",
    "Content-Type: text/html; charset=utf-8\r\n",
    "Access-Control-Allow-Methods: GET, POST\r\n",
    "Set-Cookie: id=Host:cookie.example; path=/\r\n",
    "Accept: */*\r\n",
    "\r\n",
    "\n",
    "\r",
    "binary\x00\x01\x02\x7f\x80\xff junk",
    "GET GET HEAD POST HTTP/1.",
    "HTTP/1.1200",
};

TEST(SimdHttpDifferential, SplicedCorpus) {
  util::Rng rng{21};
  for (int trial = 0; trial < 30000; ++trial) {
    std::string payload;
    const std::size_t parts = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < parts; ++i)
      payload += kFragments[rng.next_below(std::size(kFragments))];
    // Mutations: truncate anywhere, flip random bytes (non-ASCII
    // included), occasionally drop a byte to shift alignment.
    if (payload.size() > 1) payload.resize(1 + rng.next_below(payload.size()));
    for (int flips = static_cast<int>(rng.next_below(4)); flips > 0; --flips)
      payload[rng.next_below(payload.size())] =
          static_cast<char>(rng.next_below(256));
    if (rng.next_below(4) == 0 && payload.size() > 1)
      payload.erase(rng.next_below(payload.size()), 1);
    expect_all_tiers_agree(payload);
  }
}

TEST(SimdHttpDifferential, PureRandomBytes) {
  util::Rng rng{22};
  for (int trial = 0; trial < 20000; ++trial) {
    std::string payload(1 + rng.next_below(128), '\0');
    for (auto& c : payload) c = static_cast<char>(rng.next_below(256));
    expect_all_tiers_agree(payload);
  }
}

TEST(SimdHttpDifferential, UnalignedViews) {
  // The same bytes probed at every start offset within an oversized
  // buffer: vector loads must not care where the payload begins.
  const std::string base =
      "GET /path/to/resource HTTP/1.1\r\nHost: www.unaligned.example\r\n"
      "User-Agent: test\r\nAccept: */*\r\n\r\n";
  std::string buffer(64 + base.size(), 'x');
  for (std::size_t offset = 0; offset < 64; ++offset) {
    std::memcpy(buffer.data() + offset, base.data(), base.size());
    expect_all_tiers_agree(
        std::string_view{buffer.data() + offset, base.size()});
  }
}

TEST(SimdHttpDifferential, EveryTruncationOfARealExchange) {
  const std::string exchange =
      "HTTP/1.1 301 Moved Permanently\r\nLocation: http://e.example/\r\n"
      "Server: Apache/2.2\r\nContent-Length: 231\r\nSet-Cookie: a=b\r\n"
      "Cache-Control: max-age=3600\r\n\r\n<html>\xc3\xa9\xf0\x9f\x8c\x8d";
  for (std::size_t cut = 0; cut <= exchange.size(); ++cut)
    expect_all_tiers_agree(std::string_view{exchange}.substr(0, cut));
}

// ---- anchored Host extraction (the extract_header fix) -------------------

TEST(HostAnchoring, MidLineHostIsNeverLifted) {
  // Pre-§14 extract_header ran text.find(field): "Host:" inside a URL or
  // a cookie was lifted as the Host header. The anchored walk must not.
  const auto in_url = HttpMatcher::match(
      "GET /r?to=Host:evil.example HTTP/1.1\r\nHost: good.example\r\n");
  EXPECT_EQ(in_url.indication, HttpIndication::kRequest);
  EXPECT_EQ(in_url.host, "good.example");

  const auto only_mid_line = HttpMatcher::match(
      "GET /r?to=Host:evil.example HTTP/1.1\r\nAccept: */*\r\n");
  EXPECT_EQ(only_mid_line.indication, HttpIndication::kRequest);
  EXPECT_TRUE(only_mid_line.host.empty()) << only_mid_line.host;

  const auto in_cookie = HttpMatcher::match(
      "HTTP/1.1 200 OK\r\nSet-Cookie: return=Host:evil.example\r\n");
  EXPECT_EQ(in_cookie.indication, HttpIndication::kResponse);
  EXPECT_TRUE(in_cookie.host.empty()) << in_cookie.host;
}

TEST(HostAnchoring, ForwardedHostIsNotHost) {
  // "X-Forwarded-Host:" contains "Host:" mid-token; anchoring rejects it.
  const auto match = HttpMatcher::match(
      "GET / HTTP/1.1\r\nX-Forwarded-Host: hidden.example\r\n");
  EXPECT_EQ(match.indication, HttpIndication::kRequest);
  EXPECT_TRUE(match.host.empty()) << match.host;
}

TEST(HostAnchoring, LineStartPositionsStillMatch) {
  // Anchoring must keep the legitimate positions: payload start and
  // immediately after a line break (bare LF included — sFlow snippets
  // can start mid-header).
  const auto at_start = HttpMatcher::match("Host: first.example\r\n");
  EXPECT_EQ(at_start.indication, HttpIndication::kHeaderOnly);
  EXPECT_EQ(at_start.host, "first.example");

  const auto after_crlf = HttpMatcher::match(
      "GET / HTTP/1.1\r\nHost: after-crlf.example\r\n");
  EXPECT_EQ(after_crlf.host, "after-crlf.example");

  const auto after_lf =
      HttpMatcher::match("Accept: */*\nHost: after-lf.example\r\n");
  EXPECT_EQ(after_lf.indication, HttpIndication::kHeaderOnly);
  EXPECT_EQ(after_lf.host, "after-lf.example");
}

// ---- LaneFlags -----------------------------------------------------------

/// Checks LaneFlags::compute and, where the target has SSE2, the pinned
/// SSE2 kernel against compute_scalar on the same arrays.
void expect_lane_tiers_agree(const std::uint16_t* src_port,
                             const std::uint16_t* dst_port,
                             const std::uint8_t* tcp, const std::uint8_t* ind,
                             std::size_t n, int trial) {
  std::vector<std::uint8_t> ref_src(n), ref_dst(n);
  LaneFlags::compute_scalar(src_port, dst_port, tcp, ind, n, ref_src.data(),
                            ref_dst.data());
  const auto check = [&](auto&& tier_fn, const char* tier) {
    std::vector<std::uint8_t> got_src(n), got_dst(n);
    tier_fn(src_port, dst_port, tcp, ind, n, got_src.data(), got_dst.data());
    ASSERT_EQ(got_src, ref_src) << tier << " trial " << trial << " n=" << n;
    ASSERT_EQ(got_dst, ref_dst) << tier << " trial " << trial << " n=" << n;
  };
  check(LaneFlags::compute, "compute");
#ifdef __SSE2__
  check(detail::lane_flags_sse2, "sse2");
#endif
}

TEST(LaneFlagsDifferential, RandomizedLanes) {
  util::Rng rng{23};
  // Interesting ports dominate so the lane masks actually fire.
  const std::uint16_t pool[] = {80, 443, 1935, 8080, 8081, 0, 53, 65535};
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = rng.next_below(600);
    std::vector<std::uint16_t> src_port(n), dst_port(n);
    std::vector<std::uint8_t> tcp(n), indication(n);
    for (std::size_t i = 0; i < n; ++i) {
      src_port[i] = rng.next_below(2) ? pool[rng.next_below(std::size(pool))]
                                      : static_cast<std::uint16_t>(rng());
      dst_port[i] = rng.next_below(2) ? pool[rng.next_below(std::size(pool))]
                                      : static_cast<std::uint16_t>(rng());
      tcp[i] = static_cast<std::uint8_t>(rng.next_below(2));
      indication[i] = static_cast<std::uint8_t>(rng.next_below(4));
    }
    expect_lane_tiers_agree(src_port.data(), dst_port.data(), tcp.data(),
                            indication.data(), n, trial);
  }
}

TEST(LaneFlagsDifferential, TailLengthsBelowOneVector) {
  // Every length 0..95 crosses the 16-lane step boundary several times,
  // each followed by every scalar tail length.
  util::Rng rng{24};
  for (std::size_t n = 0; n < 96; ++n) {
    std::vector<std::uint16_t> src_port(n), dst_port(n);
    std::vector<std::uint8_t> tcp(n), indication(n);
    for (std::size_t i = 0; i < n; ++i) {
      src_port[i] = static_cast<std::uint16_t>(rng());
      dst_port[i] = static_cast<std::uint16_t>(rng());
      tcp[i] = static_cast<std::uint8_t>(rng.next_below(2));
      indication[i] = static_cast<std::uint8_t>(rng.next_below(4));
    }
    expect_lane_tiers_agree(src_port.data(), dst_port.data(), tcp.data(),
                            indication.data(), n, -1);
  }
}

}  // namespace
}  // namespace ixp::classify
