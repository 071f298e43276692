#include "fabric/ixp.hpp"

#include <gtest/gtest.h>

namespace ixp::fabric {
namespace {

Member make_member(std::uint32_t asn, int join_week = 0) {
  Member m;
  m.asn = net::Asn{asn};
  m.name = "m" + std::to_string(asn);
  m.join_week = join_week;
  return m;
}

TEST(Ixp, AddAndLookupByAsn) {
  Ixp ixp;
  EXPECT_TRUE(ixp.add_member(make_member(100)));
  const Member* member = ixp.member_by_asn(net::Asn{100});
  ASSERT_NE(member, nullptr);
  EXPECT_EQ(member->asn, net::Asn{100});
  EXPECT_EQ(ixp.member_by_asn(net::Asn{999}), nullptr);
}

TEST(Ixp, DuplicateAsnRejected) {
  Ixp ixp;
  EXPECT_TRUE(ixp.add_member(make_member(100)));
  EXPECT_FALSE(ixp.add_member(make_member(100)));
  EXPECT_EQ(ixp.all_members().size(), 1u);
}

TEST(Ixp, PortMacIsDerivedAndStable) {
  Ixp ixp;
  ixp.add_member(make_member(100));
  const Member* member = ixp.member_by_asn(net::Asn{100});
  EXPECT_EQ(member->port_mac, Ixp::port_mac_for(net::Asn{100}));
  EXPECT_EQ(ixp.member_by_mac(member->port_mac), member);
}

TEST(Ixp, ExplicitPortMacPreserved) {
  Ixp ixp;
  Member m = make_member(7);
  m.port_mac = sflow::MacAddr::from_id(12345);
  ixp.add_member(m);
  EXPECT_EQ(ixp.member_by_asn(net::Asn{7})->port_mac,
            sflow::MacAddr::from_id(12345));
}

TEST(Ixp, MemberCountGrowsWithJoins) {
  Ixp ixp;
  ixp.add_member(make_member(1, 0));
  ixp.add_member(make_member(2, 36));
  ixp.add_member(make_member(3, 50));
  EXPECT_EQ(ixp.member_count_at(35), 1u);
  EXPECT_EQ(ixp.member_count_at(36), 2u);
  EXPECT_EQ(ixp.member_count_at(51), 3u);
}

TEST(Ixp, MembersAtSortedByAsn) {
  Ixp ixp;
  ixp.add_member(make_member(30));
  ixp.add_member(make_member(10));
  ixp.add_member(make_member(20, 45));
  const auto members = ixp.members_at(51);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0]->asn, net::Asn{10});
  EXPECT_EQ(members[1]->asn, net::Asn{20});
  EXPECT_EQ(members[2]->asn, net::Asn{30});
}

}  // namespace
}  // namespace ixp::fabric
