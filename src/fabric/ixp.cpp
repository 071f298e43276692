#include "fabric/ixp.hpp"

#include <algorithm>

namespace ixp::fabric {

bool Ixp::add_member(Member member) {
  if (by_asn_.count(member.asn) > 0) return false;
  if (member.port_mac == sflow::MacAddr{})
    member.port_mac = port_mac_for(member.asn);
  if (member.port_id == 0)
    member.port_id = member.asn.value() % 100000 + 1;
  const std::size_t index = members_.size();
  by_asn_.emplace(member.asn, index);
  by_mac_.emplace(member.port_mac.key(), index);
  members_.push_back(std::move(member));
  return true;
}

const Member* Ixp::member_by_asn(net::Asn asn) const {
  const auto it = by_asn_.find(asn);
  return it == by_asn_.end() ? nullptr : &members_[it->second];
}

const Member* Ixp::member_by_mac(sflow::MacAddr mac) const {
  const auto it = by_mac_.find(mac.key());
  return it == by_mac_.end() ? nullptr : &members_[it->second];
}

std::vector<const Member*> Ixp::members_at(int week) const {
  std::vector<const Member*> out;
  out.reserve(members_.size());
  for (const Member& member : members_) {
    if (member.join_week <= week) out.push_back(&member);
  }
  std::sort(out.begin(), out.end(),
            [](const Member* a, const Member* b) { return a->asn < b->asn; });
  return out;
}

std::size_t Ixp::member_count_at(int week) const {
  return static_cast<std::size_t>(
      std::count_if(members_.begin(), members_.end(),
                    [week](const Member& m) { return m.join_week <= week; }));
}

}  // namespace ixp::fabric
