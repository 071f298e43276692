// The IXP itself: members, ports, and the public switching fabric.
//
// The paper's IXP has 443 member ASes in week 35 growing to 457 by week 51,
// "adding between 1-2 members per week". Each member connects via one or
// more ports on the layer-2 fabric; sFlow samples carry the port MACs, so
// everything the filter cascade needs to decide "member-to-member or not"
// is a MAC -> member lookup (classify::PeeringFilter flattens the members
// on the fabric in its week into one set of MAC keys). Resellers are
// ordinary members whose port fronts many remote customer ASes (§4.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.hpp"
#include "sflow/headers.hpp"

namespace ixp::fabric {

/// Business role of a member network (used for workload composition).
enum class MemberKind : std::uint8_t {
  kTier1,
  kTransit,
  kEyeball,
  kContent,
  kCdn,
  kHoster,
  kCloud,
  kReseller,
  kEnterprise,
};

struct Member {
  net::Asn asn;
  std::string name;
  MemberKind kind = MemberKind::kEnterprise;
  /// Absolute week number the member joined; founding members use any
  /// value <= the first observed week.
  int join_week = 0;
  std::uint32_t port_id = 0;
  sflow::MacAddr port_mac;
  std::uint32_t port_speed_gbps = 10;
};

/// The IXP's public peering fabric at a single site (logically; the real
/// IXP spreads it over several data centers, which is invisible at the
/// sFlow layer).
class Ixp {
 public:
  /// Adds a member; the port id/MAC are derived from the ASN so that the
  /// mapping is stable across runs. Re-adding an ASN is an error (returns
  /// false) — one public port per member in this model.
  bool add_member(Member member);

  [[nodiscard]] const Member* member_by_asn(net::Asn asn) const;
  [[nodiscard]] const Member* member_by_mac(sflow::MacAddr mac) const;

  /// Members present in the given week, in ASN order.
  [[nodiscard]] std::vector<const Member*> members_at(int week) const;
  [[nodiscard]] std::size_t member_count_at(int week) const;

  [[nodiscard]] const std::vector<Member>& all_members() const noexcept {
    return members_;
  }

  /// The fabric's own management MAC (route servers, monitoring): traffic
  /// to/from it is the "local" class of Figure 1.
  [[nodiscard]] sflow::MacAddr management_mac() const noexcept {
    return management_mac_;
  }

  /// Derives the stable port MAC for a member ASN.
  [[nodiscard]] static sflow::MacAddr port_mac_for(net::Asn asn) noexcept {
    return sflow::MacAddr::from_id(0xA500000000ULL + asn.value());
  }

 private:
  std::vector<Member> members_;
  std::unordered_map<net::Asn, std::size_t> by_asn_;
  std::unordered_map<std::uint64_t, std::size_t> by_mac_;  // MacAddr::key()
  sflow::MacAddr management_mac_ = sflow::MacAddr::from_id(0xFEED0001ULL);
};

}  // namespace ixp::fabric
