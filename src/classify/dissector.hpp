// Traffic dissection — the discovery pass over one week of peering
// samples (§2.2.2).
//
// The dissector watches every peering sample, applies the HTTP string
// matcher to the payload snippets, and accumulates per-IP evidence:
// who acts as an HTTP server, who as a client, who is a port-443 (HTTPS)
// candidate, who speaks RTMP, and which Host headers (URIs) each server
// was asked for. Nothing here consults the ground-truth model — the
// dissector sees only what the IXP would see.
//
// All accumulated state forms a commutative monoid under merge():
// integer byte/sample tallies, OR-ed evidence bits, and Host-header sets
// bounded by earliest global sequence number. Splitting a week's samples
// across any number of dissectors and merging them back — in any order —
// reproduces the single-dissector state exactly. The parallel engine in
// core/ relies on this contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "classify/frame_batch.hpp"
#include "classify/http_matcher.hpp"
#include "classify/peering_filter.hpp"
#include "net/ipv4.hpp"
#include "util/flat_hash_map.hpp"
#include "util/inline_string.hpp"

namespace ixp::store {
class SnapshotCodec;
}  // namespace ixp::store

namespace ixp::classify {

/// Evidence bits per IP.
inline constexpr std::uint8_t kSeenHttpServer = 0x01;  // string-match evidence
inline constexpr std::uint8_t kSeenHttpClient = 0x02;
inline constexpr std::uint8_t kCandidate443 = 0x04;    // traffic on TCP 443
inline constexpr std::uint8_t kSeenRtmp1935 = 0x08;    // traffic on TCP 1935
inline constexpr std::uint8_t kSeenPort80 = 0x10;      // server evidence on 80
inline constexpr std::uint8_t kSeenPort8080 = 0x20;    // server evidence on 8080
inline constexpr std::uint8_t kConfirmedHttps = 0x40;  // set by the prober

struct IpActivity {
  std::uint32_t samples = 0;
  std::uint64_t bytes = 0;  // expanded bytes of samples touching this IP
  std::uint8_t flags = 0;

  [[nodiscard]] bool http_server() const noexcept {
    return (flags & kSeenHttpServer) != 0;
  }
  [[nodiscard]] bool https_server() const noexcept {
    return (flags & kConfirmedHttps) != 0;
  }
  [[nodiscard]] bool web_server() const noexcept {
    return http_server() || https_server();
  }
  [[nodiscard]] bool client() const noexcept {
    return (flags & kSeenHttpClient) != 0;
  }
  /// Multi-purpose: server activity on more than one of {80/8080, 443, 1935}.
  [[nodiscard]] bool multi_purpose() const noexcept;
};

/// Week-level tallies produced by finalize().
struct DissectionSummary {
  std::size_t unique_ips = 0;
  std::size_t http_server_ips = 0;
  std::size_t https_candidate_ips = 0;
  std::size_t https_server_ips = 0;  // after the prober confirmed them
  std::size_t web_server_ips = 0;    // HTTP union HTTPS
  std::size_t client_ips = 0;
  std::size_t dual_role_ips = 0;     // server and client
  std::size_t multi_purpose_ips = 0;
  double dual_role_server_bytes = 0.0;
  double total_bytes = 0.0;          // peering bytes (each sample once)

  friend bool operator==(const DissectionSummary&,
                         const DissectionSummary&) = default;
};

class TrafficDissector {
 public:
  TrafficDissector();

  /// Ingests a batch of staged peering samples — the only way samples
  /// reach the dissector. The per-sample fields (addresses, ports,
  /// transport, bytes, seq and the HTTP match) were derived once at
  /// filter time and stream out of FrameBatch's parallel arrays; each
  /// sample's `seq` orders Host-header first-seen tie-breaks, and the
  /// address arrays drive the prefetch lookahead directly. The shard
  /// path (WeekShard::observe_batch) stages and drains it. Placed in
  /// .text.hot: the table-update loop is front-end sensitive, and
  /// grouping it with the other hot kernels keeps its placement stable
  /// as unrelated TUs move around the image.
  [[gnu::hot]] void ingest(const FrameBatch& batch);

  /// Marks an IP as a confirmed HTTPS server (prober feedback).
  void confirm_https(net::Ipv4Addr addr);

  /// Folds another dissector's state into this one. Associative and
  /// commutative; the other dissector is consumed.
  void merge(TrafficDissector&& other);

  using ActivityMap = util::FlatHashMap<net::Ipv4Addr, IpActivity>;

  [[nodiscard]] const ActivityMap& activity() const noexcept {
    return activity_;
  }

  /// Host headers observed per server IP (capped, deduplicated), ordered
  /// by earliest observation — deterministic under any shard split.
  [[nodiscard]] std::vector<std::string> hosts_of(net::Ipv4Addr addr) const;

  /// All port-443 candidates (input to the HTTPS prober), sorted by IP.
  [[nodiscard]] std::vector<net::Ipv4Addr> https_candidates() const;

  /// All identified web-server IPs (call after confirm_https feedback),
  /// sorted by IP.
  [[nodiscard]] std::vector<net::Ipv4Addr> web_servers() const;

  [[nodiscard]] DissectionSummary summarize() const;

 private:
  /// The snapshot codec (store/) serializes the evidence tables in
  /// canonical sorted order and reconstructs them on load.
  friend class store::SnapshotCodec;

  static constexpr std::size_t kMaxHostsPerServer = 8;

  /// Host headers come out of the 128-byte capture minus the "Host:"
  /// prefix, so kHostCapacity bytes always hold a full value and the
  /// inline copy is lossless.
  static constexpr std::size_t kHostCapacity =
      sflow::kCaptureBytes - sizeof("Host:") + 1;

  /// One Host header with the global sequence number of its earliest
  /// sighting; the per-server set keeps the kMaxHostsPerServer smallest
  /// (first_seq, name) keys, which makes the bounded set an exact
  /// order-statistics monoid under merge. The name lives inline — the
  /// single copy out of the capture buffer happens right here, at
  /// evidence-set insertion, never per sample.
  struct HostObservation {
    util::InlineString<kHostCapacity> name;
    std::uint64_t first_seq = 0;
  };

  void note_host(net::Ipv4Addr server, std::string_view host,
                 std::uint64_t seq);

  ActivityMap activity_;
  util::FlatHashMap<net::Ipv4Addr, std::vector<HostObservation>> hosts_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ixp::classify
