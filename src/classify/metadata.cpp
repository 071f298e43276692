#include "classify/metadata.hpp"

#include <array>
#include <string_view>

namespace ixp::classify {

bool is_rir_authority(const dns::DnsName& name) {
  static constexpr std::array<std::string_view, 5> kRirs{
      "ripe.net", "arin.net", "apnic.net", "lacnic.net", "afrinic.net"};
  for (const std::string_view rir : kRirs) {
    if (name.text() == rir) return true;
  }
  return false;
}

}  // namespace ixp::classify
