#include "classify/peering_filter.hpp"

#include "classify/frame_batch.hpp"
#include "sflow/fast_parse.hpp"

namespace ixp::classify {

namespace {

std::uint64_t expanded_bytes(const sflow::FlowSample& sample) noexcept {
  return static_cast<std::uint64_t>(sample.frame.frame_length) *
         static_cast<std::uint64_t>(sample.sampling_rate);
}

void account(FilterCounters& counters, TrafficClass c,
             std::uint64_t expanded) noexcept {
  counters.samples[static_cast<std::size_t>(c)] += 1;
  counters.bytes[static_cast<std::size_t>(c)] += expanded;
}

}  // namespace

PeeringFilter::PeeringFilter(const fabric::Ixp& ixp, int week)
    : week_(week), management_(ixp.management_mac().key()) {
  on_fabric_.reserve(ixp.all_members().size());
  for (const fabric::Member& member : ixp.all_members())
    if (member.join_week <= week) on_fabric_.try_emplace(member.port_mac.key());
}

std::optional<PeeringSample> PeeringFilter::filter(
    const sflow::FlowSample& sample, FilterCounters& counters) const {
  return keep_parsed(sflow::parse_frame_fast(sample.frame),
                     expanded_bytes(sample), counters);
}

std::optional<PeeringSample> PeeringFilter::keep_parsed(
    const std::optional<sflow::ParsedFrame>& parsed, std::uint64_t expanded,
    FilterCounters& counters) const {
  // Step 1: IPv4 only. Unparsable captures are treated as non-IPv4 junk.
  if (!parsed || !parsed->is_ipv4()) {
    account(counters, TrafficClass::kNonIpv4, expanded);
    return std::nullopt;
  }

  if (!keep_ipv4(parsed->eth.src.key(), parsed->eth.dst.key(),
                 parsed->is_tcp(), parsed->is_udp(), expanded, counters))
    return std::nullopt;
  return PeeringSample{*parsed, expanded};
}

bool PeeringFilter::keep_ipv4(std::uint64_t src_mac, std::uint64_t dst_mac,
                              bool tcp, bool udp, std::uint64_t expanded,
                              FilterCounters& counters) const {
  // Step 2: member-to-member and not local. Management traffic (the
  // IXP's own MACs) counts as local.
  if (src_mac == management_ || dst_mac == management_ ||
      !on_fabric_.contains(src_mac) || !on_fabric_.contains(dst_mac)) {
    account(counters, TrafficClass::kNonMemberOrLocal, expanded);
    return false;
  }

  // Step 3: TCP or UDP only.
  if (!tcp && !udp) {
    account(counters, TrafficClass::kNonTcpUdp, expanded);
    return false;
  }

  account(counters, TrafficClass::kPeering, expanded);
  (tcp ? counters.tcp_bytes : counters.udp_bytes) += expanded;
  return true;
}

void PeeringFilter::stage(std::span<const sflow::FlowSample> batch,
                          std::uint64_t first_seq, FilterCounters& counters,
                          FrameBatch& out) const {
  for (const sflow::FlowSample& sample : batch) {
    const std::uint64_t seq = first_seq++;
    const std::uint64_t expanded = expanded_bytes(sample);
    const auto lane = sflow::decode_lane(sample.frame);
    if (!lane) {
      // Off the fast shape: parse the layers one by one, without a second
      // decode_lane inside parse_frame_fast.
      if (auto peering = keep_parsed(sflow::parse_frame(sample.frame),
                                     expanded, counters)) {
        peering->seq = seq;
        out.push(*peering);
      }
      continue;
    }

    // A fast-shape frame is IPv4: step 1 is passed.
    if (keep_ipv4(lane->src_mac, lane->dst_mac, lane->tcp, lane->udp,
                  expanded, counters))
      out.append(lane->src_ip, lane->dst_ip, lane->src_port, lane->dst_port,
                 lane->tcp, expanded, seq,
                 sample.frame.bytes().subspan(lane->payload_at));
  }
}

}  // namespace ixp::classify
