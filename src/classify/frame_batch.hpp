// FrameBatch — structure-of-arrays staging of peering survivors.
//
// The staging step (PeeringFilter::stage) derives each surviving
// sample's hot fields exactly once, at filter time: addresses, ports,
// transport, expanded bytes, sequence number — and the HTTP string
// match, run here while the payload is still hot in cache from frame
// parsing. The dissector's
// batch pass then streams index-aligned parallel arrays (~50 contiguous
// bytes per sample instead of re-walking a ~130-byte ParsedFrame with
// its optional transport headers and re-reading 128 payload bytes) and
// spends itself purely on evidence-table updates, software-prefetching
// the table slots of upcoming samples.
//
// FrameBatch is the only form in which samples reach the dissector
// (TrafficDissector::ingest). Host views alias the FlowSample buffers
// the batch was filtered from: a FrameBatch must be drained (ingested)
// before those samples go away. WeekShard::observe_batch owns that
// lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "classify/http_matcher.hpp"
#include "classify/peering_filter.hpp"
#include "net/ipv4.hpp"

namespace ixp::classify {

class FrameBatch {
 public:
  /// Appends one filter survivor (running the HTTP match on its
  /// payload); `sample.seq` must already be set.
  void push(const PeeringSample& sample) {
    const sflow::ParsedFrame& frame = sample.frame;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    if (frame.is_tcp()) {
      src_port = frame.tcp->src_port;
      dst_port = frame.tcp->dst_port;
    } else if (frame.is_udp()) {
      src_port = frame.udp->src_port;
      dst_port = frame.udp->dst_port;
    }
    append(frame.ip->src, frame.ip->dst, src_port, dst_port, frame.is_tcp(),
           sample.expanded_bytes, sample.seq, frame.payload);
  }

  /// Appends one survivor from its decoded fields; the HTTP match runs on
  /// `payload` when the transport is TCP.
  void append(net::Ipv4Addr src, net::Ipv4Addr dst, std::uint16_t src_port,
              std::uint16_t dst_port, bool tcp, std::uint64_t expanded_bytes,
              std::uint64_t seq, std::span<const std::byte> payload) {
    src_.push_back(src);
    dst_.push_back(dst);
    src_port_.push_back(src_port);
    dst_port_.push_back(dst_port);
    tcp_.push_back(tcp ? 1 : 0);
    bytes_.push_back(expanded_bytes);
    seq_.push_back(seq);

    HttpMatch match;
    if (tcp && !payload.empty()) match = HttpMatcher::match(payload);
    indication_.push_back(static_cast<std::uint8_t>(match.indication));
    host_.push_back(match.host);
  }

  void clear() noexcept {
    src_.clear();
    dst_.clear();
    src_port_.clear();
    dst_port_.clear();
    tcp_.clear();
    bytes_.clear();
    seq_.clear();
    indication_.clear();
    host_.clear();
  }

  void reserve(std::size_t n) {
    src_.reserve(n);
    dst_.reserve(n);
    src_port_.reserve(n);
    dst_port_.reserve(n);
    tcp_.reserve(n);
    bytes_.reserve(n);
    seq_.reserve(n);
    indication_.reserve(n);
    host_.reserve(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return src_.size(); }
  [[nodiscard]] bool empty() const noexcept { return src_.empty(); }

  // Parallel arrays, index-aligned across all accessors.
  [[nodiscard]] const net::Ipv4Addr* src() const noexcept { return src_.data(); }
  [[nodiscard]] const net::Ipv4Addr* dst() const noexcept { return dst_.data(); }
  [[nodiscard]] const std::uint16_t* src_port() const noexcept {
    return src_port_.data();
  }
  [[nodiscard]] const std::uint16_t* dst_port() const noexcept {
    return dst_port_.data();
  }
  [[nodiscard]] const std::uint8_t* tcp() const noexcept { return tcp_.data(); }
  [[nodiscard]] const std::uint64_t* bytes() const noexcept {
    return bytes_.data();
  }
  [[nodiscard]] const std::uint64_t* seq() const noexcept { return seq_.data(); }
  /// HttpIndication per sample, stored as its underlying byte.
  [[nodiscard]] const std::uint8_t* indication() const noexcept {
    return indication_.data();
  }
  /// Host header views (empty = none); alias the source sample buffers.
  [[nodiscard]] const std::string_view* host() const noexcept {
    return host_.data();
  }

 private:
  std::vector<net::Ipv4Addr> src_;
  std::vector<net::Ipv4Addr> dst_;
  std::vector<std::uint16_t> src_port_;
  std::vector<std::uint16_t> dst_port_;
  std::vector<std::uint8_t> tcp_;
  std::vector<std::uint64_t> bytes_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint8_t> indication_;
  std::vector<std::string_view> host_;
};

}  // namespace ixp::classify
