#include "classify/http_matcher.hpp"

#include "classify/http_match_impl.hpp"

namespace ixp::classify {

HttpMatch HttpMatcher::match(std::string_view payload) {
#ifdef __SSE2__
  return detail::match_impl<detail::Sse2Policy>(payload);
#else
  return detail::match_impl<detail::ScalarPolicy>(payload);
#endif
}

HttpMatch HttpMatcher::match_scalar(std::string_view payload) {
  return detail::match_impl<detail::ScalarPolicy>(payload);
}

HttpMatch HttpMatcher::match(std::span<const std::byte> payload) {
  return match(std::string_view{
      reinterpret_cast<const char*>(payload.data()), payload.size()});
}

HttpMatch HttpMatcher::match_scalar(std::span<const std::byte> payload) {
  return match_scalar(std::string_view{
      reinterpret_cast<const char*>(payload.data()), payload.size()});
}

}  // namespace ixp::classify
