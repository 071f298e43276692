#include "classify/http_matcher.hpp"

#include <array>
#include <cctype>
#include <cstring>

namespace ixp::classify {

namespace {

constexpr std::array<std::string_view, 8> kMethods{
    "GET ", "HEAD ", "POST ", "PUT ", "DELETE ", "OPTIONS ", "TRACE ", "CONNECT "};

// Header field words per the RFCs / W3C specs the paper cites.
constexpr std::array<std::string_view, 10> kHeaderFields{
    "Host:", "Server:", "Content-Type:", "Content-Length:", "User-Agent:",
    "Accept:", "Set-Cookie:", "Cache-Control:", "Location:",
    "Access-Control-Allow-Methods:"};

constexpr std::string_view kHost = "Host:";
constexpr std::string_view kVersion = "HTTP/1.";

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

constexpr auto kMethodFirst = first_byte_table(kMethods);
constexpr auto kFieldFirst = first_byte_table(kHeaderFields);

/// Does `token` occur in `text` at exactly `pos`?
bool token_at(std::string_view text, std::size_t pos,
              std::string_view token) noexcept {
  return pos + token.size() <= text.size() &&
         std::memcmp(text.data() + pos, token.data(), token.size()) == 0;
}

/// True when `line` (a request's first line) ends in HTTP/1.0 or
/// HTTP/1.1. Runs only on lines that already matched a method word.
bool request_line_has_version(std::string_view line) {
  const std::size_t at = line.rfind(kVersion);
  if (at == std::string_view::npos) return false;
  if (at + 8 > line.size()) return false;
  const char minor = line[at + 7];
  return minor == '0' || minor == '1';
}

/// The anchored Host extraction: the field must sit at the payload
/// start or immediately after a line break. (An unanchored substring
/// search would lift "Host:" out of the middle of a URL or cookie —
/// the pre-§14 matcher did exactly that.)
std::string_view extract_host(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    if (token_at(text, pos, kHost)) {
      std::size_t begin = pos + kHost.size();
      while (begin < text.size() && text[begin] == ' ') ++begin;
      std::size_t end = begin;
      while (end < text.size() && text[end] != '\r' && text[end] != '\n') ++end;
      // A value truncated by the capture boundary is unusable only if
      // empty.
      return text.substr(begin, end - begin);
    }
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return {};
}

}  // namespace

HttpMatch HttpMatcher::match(std::string_view payload) {
  HttpMatch result;
  if (payload.empty()) return result;

  const std::size_t eol = payload.find("\r\n");
  const std::string_view line =
      eol == std::string_view::npos ? payload : payload.substr(0, eol);

  // Pattern 1a: request line "METHOD SP path SP HTTP/1.x". (line[0],
  // when it exists, equals payload[0]; an empty line can't start a
  // method.)
  if (kMethodFirst[static_cast<unsigned char>(payload[0])]) {
    for (const std::string_view method : kMethods) {
      if (!token_at(line, 0, method)) continue;
      if (!request_line_has_version(line)) break;  // e.g. RTSP or truncated
      result.indication = HttpIndication::kRequest;
      const std::size_t path_begin = method.size();
      const std::size_t path_end = line.find(' ', path_begin);
      if (path_end != std::string_view::npos && path_end > path_begin)
        result.path = line.substr(path_begin, path_end - path_begin);
      result.host = extract_host(payload);
      return result;
    }
  }

  // Pattern 1b: response status line "HTTP/1.x NNN".
  if (token_at(line, 0, kVersion) && line.size() >= 12 &&
      (line[7] == '0' || line[7] == '1') && line[8] == ' ' &&
      std::isdigit(static_cast<unsigned char>(line[9])) &&
      std::isdigit(static_cast<unsigned char>(line[10])) &&
      std::isdigit(static_cast<unsigned char>(line[11]))) {
    result.indication = HttpIndication::kResponse;
    result.host = extract_host(payload);
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
      for (const std::string_view field : kHeaderFields) {
        if (token_at(payload, pos, field)) {
          result.indication = HttpIndication::kHeaderOnly;
          result.host = extract_host(payload);
          return result;
        }
      }
    }
    const std::size_t nl = payload.find('\n', pos);
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return result;
}

HttpMatch HttpMatcher::match(std::span<const std::byte> payload) {
  return match(std::string_view{
      reinterpret_cast<const char*>(payload.data()), payload.size()});
}

}  // namespace ixp::classify
