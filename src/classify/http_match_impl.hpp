// Internal: the HTTP matcher algorithm, parameterized by a scanning
// policy (DESIGN.md §14). One template — match_impl<Policy> — holds the
// entire decision structure (request line, response line, header-field
// words, anchored Host extraction); policies supply only the three
// primitives the hot loops spend their time in:
//
//   find_lf(text, from)        next '\n' at or after `from`
//   find_crlf(text)            first "\r\n" pair
//   token_at(text, pos, tok)   does `tok` occur at exactly `pos`?
//
// ScalarPolicy implements them with libc (memchr/memcmp — the portable
// SWAR-or-better fallback) and doubles as the differential oracle behind
// HttpMatcher::match_scalar. Sse2Policy (compiled wherever the target
// has SSE2, which is the x86-64 baseline) uses 16-byte compares against
// pre-padded token images. No policy reads past either the payload or a
// token: token images are padded to 32 bytes at compile time, and
// payload tails shorter than a vector are handed to memcmp.
//
// This header is internal to the classify library and its tests; the
// public surface stays in http_matcher.hpp.
#pragma once

#include <array>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "classify/http_matcher.hpp"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace ixp::classify::detail {

constexpr std::array<std::string_view, 8> kMethods{
    "GET ", "HEAD ", "POST ", "PUT ", "DELETE ", "OPTIONS ", "TRACE ", "CONNECT "};

// Header field words per the RFCs / W3C specs the paper cites.
constexpr std::array<std::string_view, 10> kHeaderFields{
    "Host:", "Server:", "Content-Type:", "Content-Length:", "User-Agent:",
    "Accept:", "Set-Cookie:", "Cache-Control:", "Location:",
    "Access-Control-Allow-Methods:"};

/// A token padded to vector width, with the byte-compare mask that
/// selects its real length. Longest token today is 29 bytes
/// ("Access-Control-Allow-Methods:"), so 32 bytes hold everything and a
/// full-width load of `bytes` can never overread the image.
struct PaddedToken {
  alignas(16) char bytes[32];
  std::uint32_t mask;
  std::uint32_t len;
};

constexpr PaddedToken make_token(std::string_view text) {
  PaddedToken token{{}, 0, 0};
  for (std::size_t i = 0; i < text.size(); ++i) token.bytes[i] = text[i];
  token.len = static_cast<std::uint32_t>(text.size());
  token.mask = text.size() >= 32 ? 0xFFFFFFFFu
                                 : (1u << text.size()) - 1u;
  return token;
}

template <std::size_t N>
constexpr std::array<PaddedToken, N> make_tokens(
    const std::array<std::string_view, N>& words) {
  std::array<PaddedToken, N> tokens{};
  for (std::size_t i = 0; i < N; ++i) tokens[i] = make_token(words[i]);
  return tokens;
}

inline constexpr auto kMethodTokens = make_tokens(kMethods);
inline constexpr auto kFieldTokens = make_tokens(kHeaderFields);
inline constexpr PaddedToken kHostToken = make_token("Host:");
inline constexpr PaddedToken kVersionToken = make_token("HTTP/1.");

/// True at byte `b` for every byte that starts one of `words`: gates the
/// token-probe loops behind one table load per line start.
template <std::size_t N>
constexpr std::array<bool, 256> first_byte_table(
    const std::array<std::string_view, N>& words) {
  std::array<bool, 256> table{};
  for (const std::string_view word : words)
    table[static_cast<unsigned char>(word.front())] = true;
  return table;
}

inline constexpr auto kMethodFirst = first_byte_table(kMethods);
inline constexpr auto kFieldFirst = first_byte_table(kHeaderFields);

/// True when `line` (a request's first line) ends in HTTP/1.0 or
/// HTTP/1.1. Runs only on lines that already matched a method word, so
/// it stays scalar.
inline bool request_line_has_version(std::string_view line) {
  const std::size_t at = line.rfind("HTTP/1.");
  if (at == std::string_view::npos) return false;
  if (at + 8 > line.size()) return false;
  const char minor = line[at + 7];
  return minor == '0' || minor == '1';
}

/// Portable policy and differential oracle. libc memchr/memcmp already
/// run word-at-a-time (SWAR) or better on every libc this builds
/// against, so this is also the no-SIMD fallback tier.
struct ScalarPolicy {
  static std::size_t find_lf(std::string_view text, std::size_t from) noexcept {
    return text.find('\n', from);
  }
  static std::size_t find_crlf(std::string_view text) noexcept {
    return text.find("\r\n");
  }
  static bool token_at(std::string_view text, std::size_t pos,
                       const PaddedToken& token) noexcept {
    return pos + token.len <= text.size() &&
           std::memcmp(text.data() + pos, token.bytes, token.len) == 0;
  }
};

#ifdef __SSE2__

/// 16-byte policy on the x86-64 baseline ISA (SSE2 needs no target
/// attribute, so it can live in this shared header).
struct Sse2Policy {
  static std::size_t find_lf(std::string_view text, std::size_t from) noexcept {
    const char* p = text.data();
    const std::size_t n = text.size();
    const __m128i lf = _mm_set1_epi8('\n');
    std::size_t i = from;
    for (; i + 16 <= n; i += 16) {
      const int found = _mm_movemask_epi8(_mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)), lf));
      if (found != 0)
        return i + static_cast<std::size_t>(__builtin_ctz(
                       static_cast<unsigned>(found)));
    }
    for (; i < n; ++i)
      if (p[i] == '\n') return i;
    return std::string_view::npos;
  }

  static std::size_t find_crlf(std::string_view text) noexcept {
    const char* p = text.data();
    const std::size_t n = text.size();
    const __m128i cr = _mm_set1_epi8('\r');
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      // Candidate '\r' bytes; the '\n' check reads the next byte
      // directly, which also handles a pair straddling the block edge.
      unsigned found = static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)), cr)));
      while (found != 0) {
        const std::size_t at = i + static_cast<std::size_t>(__builtin_ctz(found));
        if (at + 1 < n && p[at + 1] == '\n') return at;
        found &= found - 1;
      }
    }
    for (; i + 1 < n; ++i)
      if (p[i] == '\r' && p[i + 1] == '\n') return i;
    return std::string_view::npos;
  }

  static bool token_at(std::string_view text, std::size_t pos,
                       const PaddedToken& token) noexcept {
    if (pos + token.len > text.size()) return false;
    if (pos + 16 > text.size())  // vector load would overread the payload
      return std::memcmp(text.data() + pos, token.bytes, token.len) == 0;
    const unsigned eq = static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(text.data() + pos)),
        _mm_load_si128(reinterpret_cast<const __m128i*>(token.bytes)))));
    const unsigned head = token.mask & 0xFFFFu;
    if ((eq & head) != head) return false;
    if (token.len <= 16) return true;
    const unsigned tail = token.mask >> 16;
    if (pos + 32 > text.size())
      return std::memcmp(text.data() + pos + 16, token.bytes + 16,
                         token.len - 16) == 0;
    const unsigned eq2 = static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
        _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(text.data() + pos + 16)),
        _mm_load_si128(reinterpret_cast<const __m128i*>(token.bytes + 16)))));
    return (eq2 & tail) == tail;
  }
};

#endif  // __SSE2__

/// The anchored Host extraction: the field must sit at the payload
/// start or immediately after a line break. (An unanchored substring
/// search would lift "Host:" out of the middle of a URL or cookie —
/// the pre-§14 matcher did exactly that.)
template <typename Policy>
std::string_view extract_host(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    if (Policy::token_at(text, pos, kHostToken)) {
      std::size_t begin = pos + kHostToken.len;
      while (begin < text.size() && text[begin] == ' ') ++begin;
      std::size_t end = begin;
      while (end < text.size() && text[end] != '\r' && text[end] != '\n') ++end;
      // A value truncated by the capture boundary is unusable only if
      // empty.
      return text.substr(begin, end - begin);
    }
    const std::size_t nl = Policy::find_lf(text, pos);
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return {};
}

template <typename Policy>
HttpMatch match_impl(std::string_view payload) {
  HttpMatch result;
  if (payload.empty()) return result;

  const std::size_t eol = Policy::find_crlf(payload);
  const std::string_view line =
      eol == std::string_view::npos ? payload : payload.substr(0, eol);

  // Pattern 1a: request line "METHOD SP path SP HTTP/1.x". (line[0],
  // when it exists, equals payload[0]; an empty line can't start a
  // method.)
  if (kMethodFirst[static_cast<unsigned char>(payload[0])]) {
    for (std::size_t i = 0; i < kMethodTokens.size(); ++i) {
      const PaddedToken& method = kMethodTokens[i];
      if (!Policy::token_at(line, 0, method)) continue;
      if (!request_line_has_version(line)) break;  // e.g. RTSP or truncated
      result.indication = HttpIndication::kRequest;
      const std::size_t path_begin = method.len;
      const std::size_t path_end = line.find(' ', path_begin);
      if (path_end != std::string_view::npos && path_end > path_begin)
        result.path = line.substr(path_begin, path_end - path_begin);
      result.host = extract_host<Policy>(payload);
      return result;
    }
  }

  // Pattern 1b: response status line "HTTP/1.x NNN".
  if (Policy::token_at(line, 0, kVersionToken) && line.size() >= 12 &&
      (line[7] == '0' || line[7] == '1') && line[8] == ' ' &&
      std::isdigit(static_cast<unsigned char>(line[9])) &&
      std::isdigit(static_cast<unsigned char>(line[10])) &&
      std::isdigit(static_cast<unsigned char>(line[11]))) {
    result.indication = HttpIndication::kResponse;
    result.host = extract_host<Policy>(payload);
    return result;
  }

  // Pattern 2: header field words at the start of a line, anywhere in
  // the snippet (mid-connection packets of a header that spans frames;
  // the begin-of-line anchor avoids matching random payload bytes). One
  // walk over line starts rather than one substring search per field
  // word: a non-HTTP capture has almost no '\n' bytes, so this decides
  // "miss" in a handful of prefix probes instead of ten scans of the
  // payload.
  std::size_t pos = 0;
  while (true) {
    if (pos < payload.size() &&
        kFieldFirst[static_cast<unsigned char>(payload[pos])]) {
      for (std::size_t i = 0; i < kFieldTokens.size(); ++i) {
        if (Policy::token_at(payload, pos, kFieldTokens[i])) {
          result.indication = HttpIndication::kHeaderOnly;
          result.host = extract_host<Policy>(payload);
          return result;
        }
      }
    }
    const std::size_t nl = Policy::find_lf(payload, pos);
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return result;
}

}  // namespace ixp::classify::detail
