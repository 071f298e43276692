#include "dns/uri.hpp"

#include <cctype>
#include <charconv>

#include "net/ipv4.hpp"

namespace ixp::dns {

std::optional<Uri> Uri::parse(std::string_view text) {
  Uri uri;
  const std::size_t scheme_end = text.find("://");
  if (scheme_end != std::string_view::npos) {
    const std::string_view scheme = text.substr(0, scheme_end);
    if (scheme.empty()) return std::nullopt;
    for (const char c : scheme) {
      if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.'))
        return std::nullopt;
    }
    uri.scheme_.assign(scheme);
    for (auto& c : uri.scheme_)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    text.remove_prefix(scheme_end + 3);
  }

  const std::size_t path_start = text.find('/');
  std::string_view host_port = text;
  if (path_start != std::string_view::npos) {
    host_port = text.substr(0, path_start);
    uri.path_.assign(text.substr(path_start));
  } else {
    uri.path_ += '/';
  }

  const std::size_t colon = host_port.rfind(':');
  std::string_view host_text = host_port;
  if (colon != std::string_view::npos) {
    host_text = host_port.substr(0, colon);
    const std::string_view port_text = host_port.substr(colon + 1);
    std::uint32_t port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc{} || ptr != port_text.data() + port_text.size() ||
        port == 0 || port > 65535)
      return std::nullopt;
    uri.port_ = static_cast<std::uint16_t>(port);
  }

  const auto host = DnsName::parse(host_text);
  if (!host) return std::nullopt;
  // Reject IP-literal hosts: all-numeric final label (e.g. "1.2.3.4").
  if (net::Ipv4Addr::parse(host->text())) return std::nullopt;
  // Require at least two labels so an authority can exist.
  if (host->label_count() < 2) return std::nullopt;
  uri.host_ = *host;
  return uri;
}

std::string Uri::to_string() const {
  std::string out;
  if (!scheme_.empty()) {
    out += scheme_;
    out += "://";
  }
  out += host_.text();
  if (port_ != 0) {
    out += ':';
    out += std::to_string(port_);
  }
  out += path_;
  return out;
}

}  // namespace ixp::dns
