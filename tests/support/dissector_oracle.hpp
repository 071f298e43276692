// Test oracle: the discovery pass's evidence rule (§2.2.2) applied one
// peering sample at a time, kept out of the shipped libraries. It is the
// branchy per-sample switch the dissector once ran inline — string-match
// the capture, then set server, client and port evidence on both
// endpoints, and keep each server's bounded Host-header set — over its
// own ordered tables, with no access to TrafficDissector internals. The
// shipped path (FrameBatch staging + LaneFlags + the phase-split table
// pass) is held to it by tests/core/dissector_differential_test.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "classify/dissector.hpp"
#include "classify/peering_filter.hpp"
#include "net/ipv4.hpp"

namespace ixp::classify {

class DissectorOracle {
 public:
  /// Applies the evidence rule to one filter survivor; `sample.seq`
  /// orders Host-header first-seen tie-breaks.
  void ingest(const PeeringSample& sample);

  [[nodiscard]] const std::map<net::Ipv4Addr, IpActivity>& activity()
      const noexcept {
    return activity_;
  }

  /// Host headers of one server, ordered by (first_seq, name).
  [[nodiscard]] std::vector<std::string> hosts_of(net::Ipv4Addr addr) const;

  [[nodiscard]] DissectionSummary summarize() const;

 private:
  /// Per-server Host-header cap, as in §2.2.2's URI harvest.
  static constexpr std::size_t kMaxHostsPerServer = 8;

  struct HostObservation {
    std::string name;
    std::uint64_t first_seq = 0;
  };

  void note_host(net::Ipv4Addr server, std::string_view host,
                 std::uint64_t seq);

  std::map<net::Ipv4Addr, IpActivity> activity_;
  std::map<net::Ipv4Addr, std::vector<HostObservation>> hosts_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ixp::classify
