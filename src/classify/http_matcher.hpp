// HTTP string matching over 128-byte payload snippets (§2.2.2).
//
// "We use two different patterns. The first pattern matches the initial
// line of request and response packets and looks for HTTP method words
// (e.g., GET, HEAD, POST) and the words HTTP/1.{0,1}. The second pattern
// applies to header lines in any packet of a connection and relies on
// commonly used HTTP header field words."
//
// The matcher also extracts the Host header when present — that is where
// the URIs of §2.4 come from.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace ixp::classify {

enum class HttpIndication : std::uint8_t {
  kNone,        // no HTTP evidence in the snippet
  kRequest,     // initial request line (sender is a client)
  kResponse,    // initial response line (sender is a server)
  kHeaderOnly,  // header field words mid-connection (direction unknown)
};

/// Zero-allocation match result: `host` and `path` are views into the
/// payload buffer handed to match() and share its lifetime. An empty
/// view means "not present" (an empty header value is never returned).
/// Callers that keep a value beyond the sample copy it at the point of
/// storage — one copy at the evidence-set insert, none per sample.
struct HttpMatch {
  HttpIndication indication = HttpIndication::kNone;
  /// Host header value, when the snippet contains one.
  std::string_view host;
  /// Request path (first line of a request), when present.
  std::string_view path;
};

/// Stateless matcher; safe to share across threads.
class HttpMatcher {
 public:
  /// Scans a captured payload snippet. The snippet may be truncated
  /// mid-line (sFlow capture boundary) — partial trailing tokens are
  /// ignored rather than misparsed. One scalar form on every target
  /// (DESIGN.md §14.2): line starts found with find('\n'), each probed
  /// through a first-byte table and a length-checked memcmp.
  [[nodiscard]] static HttpMatch match(std::span<const std::byte> payload);

  /// Convenience overload for text.
  [[nodiscard]] static HttpMatch match(std::string_view payload);
};

}  // namespace ixp::classify
