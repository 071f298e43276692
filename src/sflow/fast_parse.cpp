#include "sflow/fast_parse.hpp"

namespace ixp::sflow {

std::optional<ParsedFrame> parse_frame_fast(const SampledFrame& frame) {
  const auto lane = decode_lane(frame);
  if (!lane) return parse_frame(frame);

  constexpr std::size_t kIpAt = FrameLane::kIpAt;
  constexpr std::size_t kL4At = FrameLane::kL4At;
  const std::byte* p = frame.data.data();

  ParsedFrame parsed;
  parsed.eth.dst = MacAddr::from_key(lane->dst_mac);
  parsed.eth.src = MacAddr::from_key(lane->src_mac);
  parsed.eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);

  Ipv4Header ip;
  ip.dscp = std::to_integer<std::uint8_t>(p[kIpAt + 1]);
  ip.total_length = load_be16(p + kIpAt + 2);
  ip.identification = load_be16(p + kIpAt + 4);
  ip.ttl = std::to_integer<std::uint8_t>(p[kIpAt + 8]);
  ip.protocol = lane->protocol;
  ip.src = lane->src_ip;
  ip.dst = lane->dst_ip;
  parsed.ip = ip;

  if (lane->tcp) {
    TcpHeader tcp;
    tcp.src_port = lane->src_port;
    tcp.dst_port = lane->dst_port;
    tcp.seq = load_be32(p + kL4At + 4);
    tcp.ack = load_be32(p + kL4At + 8);
    tcp.flags = std::to_integer<std::uint8_t>(p[kL4At + 13]);
    tcp.window = load_be16(p + kL4At + 14);
    parsed.tcp = tcp;
  } else if (lane->udp) {
    UdpHeader udp;
    udp.src_port = lane->src_port;
    udp.dst_port = lane->dst_port;
    udp.length = load_be16(p + kL4At + 4);
    parsed.udp = udp;
  }
  if (lane->tcp || lane->udp)
    parsed.payload = frame.bytes().subspan(lane->payload_at);
  return parsed;
}

}  // namespace ixp::sflow
