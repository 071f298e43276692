// Fuzz suite for HttpMatcher (DESIGN.md §14.2) on clean, truncated,
// unaligned and non-ASCII inputs. The matcher has one form, so each
// result is held to the rules the paper's two patterns (§2.2.2) state:
//
//   - `host` and `path` are views inside the payload;
//   - a returned host is the value of the first "Host:" at a line start
//     (payload start or just after '\n'), its leading spaces skipped;
//   - kRequest and kResponse need a method word or "HTTP/1." at the
//     payload start, kHeaderOnly a header field word at a line start.
//
// HostAnchoring pins the anchored Host rule on hand-written payloads.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "classify/http_matcher.hpp"
#include "util/rng.hpp"

namespace ixp::classify {
namespace {

constexpr std::array<std::string_view, 8> kMethodWords{
    "GET ", "HEAD ", "POST ", "PUT ", "DELETE ", "OPTIONS ", "TRACE ", "CONNECT "};

constexpr std::array<std::string_view, 10> kFieldWords{
    "Host:", "Server:", "Content-Type:", "Content-Length:", "User-Agent:",
    "Accept:", "Set-Cookie:", "Cache-Control:", "Location:",
    "Access-Control-Allow-Methods:"};

bool starts_with_any(std::string_view text,
                     std::span<const std::string_view> words) {
  for (const std::string_view word : words)
    if (text.starts_with(word)) return true;
  return false;
}

/// True when `view` is empty or lies within `payload`'s bytes.
bool inside(std::string_view payload, std::string_view view) {
  if (view.empty()) return true;
  return view.data() >= payload.data() &&
         view.data() + view.size() <= payload.data() + payload.size();
}

/// The value of the first "Host:" at a line start, leading spaces
/// skipped, up to the next CR or LF; empty when there is none.
std::string_view first_anchored_host(std::string_view payload) {
  for (std::size_t start = 0; start < payload.size();) {
    if (payload.substr(start).starts_with("Host:")) {
      std::size_t begin = start + 5;
      while (begin < payload.size() && payload[begin] == ' ') ++begin;
      const std::size_t end = payload.find_first_of("\r\n", begin);
      return payload.substr(begin, end == std::string_view::npos
                                       ? std::string_view::npos
                                       : end - begin);
    }
    const std::size_t nl = payload.find('\n', start);
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return {};
}

bool field_word_at_a_line_start(std::string_view payload) {
  for (std::size_t start = 0; start < payload.size();) {
    if (starts_with_any(payload.substr(start), kFieldWords)) return true;
    const std::size_t nl = payload.find('\n', start);
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return false;
}

/// Matches `payload` and checks the result against the rules above;
/// returns it for case-specific checks.
HttpMatch expect_well_formed(std::string_view payload) {
  const HttpMatch got = HttpMatcher::match(payload);
  const std::string shown{payload.substr(0, 60)};
  EXPECT_TRUE(inside(payload, got.host)) << shown;
  EXPECT_TRUE(inside(payload, got.path)) << shown;
  switch (got.indication) {
    case HttpIndication::kNone:
      EXPECT_TRUE(got.host.empty()) << shown;
      EXPECT_TRUE(got.path.empty()) << shown;
      return got;
    case HttpIndication::kRequest:
      EXPECT_TRUE(starts_with_any(payload, kMethodWords)) << shown;
      break;
    case HttpIndication::kResponse:
      EXPECT_TRUE(payload.starts_with("HTTP/1.")) << shown;
      break;
    case HttpIndication::kHeaderOnly:
      EXPECT_TRUE(field_word_at_a_line_start(payload)) << shown;
      break;
  }
  if (got.indication != HttpIndication::kRequest) {
    EXPECT_TRUE(got.path.empty()) << shown;
  }
  const std::string_view want_host = first_anchored_host(payload);
  EXPECT_EQ(got.host, want_host) << shown;
  if (!got.host.empty()) {
    EXPECT_EQ(got.host.data(), want_host.data()) << shown;
  }
  return got;
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

TEST(HttpMatcherFuzz, SplicedCorpus) {
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
    expect_well_formed(payload);
  }
}

TEST(HttpMatcherFuzz, PureRandomBytes) {
  util::Rng rng{22};
  for (int trial = 0; trial < 20000; ++trial) {
    std::string payload(1 + rng.next_below(128), '\0');
    for (auto& c : payload) c = static_cast<char>(rng.next_below(256));
    expect_well_formed(payload);
  }
}

TEST(HttpMatcherFuzz, UnalignedViews) {
  // The same bytes probed at every start offset within an oversized
  // buffer: the result, as offsets into the payload, must not care where
  // the payload begins.
  const std::string base =
      "GET /path/to/resource HTTP/1.1\r\nHost: www.unaligned.example\r\n"
      "User-Agent: test\r\nAccept: */*\r\n\r\n";
  std::string buffer(64 + base.size(), 'x');
  for (std::size_t offset = 0; offset < 64; ++offset) {
    std::memcpy(buffer.data() + offset, base.data(), base.size());
    const std::string_view payload{buffer.data() + offset, base.size()};
    const HttpMatch got = expect_well_formed(payload);
    EXPECT_EQ(got.indication, HttpIndication::kRequest) << offset;
    EXPECT_EQ(got.path.data(), payload.data() + 4) << offset;
    EXPECT_EQ(got.path, "/path/to/resource") << offset;
    EXPECT_EQ(got.host, "www.unaligned.example") << offset;
  }
}

TEST(HttpMatcherFuzz, EveryTruncationOfARealExchange) {
  // The status line needs its three code digits ("HTTP/1.1 301", 12
  // bytes); every shorter cut has no line break and is a miss.
  const std::string exchange =
      "HTTP/1.1 301 Moved Permanently\r\nLocation: http://e.example/\r\n"
      "Server: Apache/2.2\r\nContent-Length: 231\r\nSet-Cookie: a=b\r\n"
      "Cache-Control: max-age=3600\r\n\r\n<html>\xc3\xa9\xf0\x9f\x8c\x8d";
  for (std::size_t cut = 0; cut <= exchange.size(); ++cut) {
    const HttpMatch got =
        expect_well_formed(std::string_view{exchange}.substr(0, cut));
    EXPECT_EQ(got.indication,
              cut < 12 ? HttpIndication::kNone : HttpIndication::kResponse)
        << cut;
  }
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

}  // namespace
}  // namespace ixp::classify
