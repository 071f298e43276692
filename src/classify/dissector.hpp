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
//
// The per-IP tables are split into kPartitions partitions by the top
// kPartitionBits address bits (DESIGN.md §7). A partition is a complete,
// independent unit of the monoid: merge() is the per-partition fold run
// over every partition, so threads can fold different partitions of the
// same shards at once. The partitions cover ascending address ranges, so
// walking them in index order and sorting within each yields global
// address order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <ratio>
#include <span>
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

/// 12 bytes at 4-byte alignment: the 56-bit `bytes` and the flag byte
/// share one 8-byte word, so an ActivityTable slot (address + entry) is
/// 16 bytes rather than 32. At the paper's full volume a week's peering
/// total stays ~8x under 2^56 (the ActivityByteBound test), so ingest and
/// merge add without a check.
struct [[gnu::packed, gnu::aligned(4)]] IpActivity {
  std::uint32_t samples = 0;
  std::uint64_t bytes : 56 = 0;  // expanded bytes of samples touching this IP
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

/// Partitions of the per-IP tables: 2^kPartitionBits, by top address bits.
inline constexpr unsigned kPartitionBits = 10;
inline constexpr std::size_t kPartitions = std::size_t{1} << kPartitionBits;

[[nodiscard]] constexpr std::size_t partition_of(net::Ipv4Addr addr) noexcept {
  return addr.value() >> (32 - kPartitionBits);
}

/// One activity partition. ingest() probes it twice per sample, and a
/// partition has no up-front reserve, so it spends its life between half
/// its grow bound and the bound itself. It grows at 3/4 full rather than
/// the default 7/8: near 7/8 linear probing walks ~4.5 slots per hit and
/// ~32 per miss, near 3/4 ~2.5 and ~8.5, for 7/6 the slot memory.
using ActivityTable = util::FlatHashMap<net::Ipv4Addr, IpActivity,
                                        std::hash<net::Ipv4Addr>,
                                        std::equal_to<>, std::ratio<3, 4>>;
static_assert(sizeof(ActivityTable::value_type) == 16,
              "an activity slot is the address plus a packed 12-byte entry");

/// Read-only view of the partitioned activity table: lookups go to the
/// address's partition, and iteration walks the partitions in index
/// (address-range) order, each in its own slot order. Iterators stay
/// valid while the dissector is unchanged, whichever view minted them.
class ActivityView {
 public:
  class const_iterator {
   public:
    using value_type = ActivityTable::value_type;
    using reference = const value_type&;
    using pointer = const value_type*;
    using iterator_category = std::forward_iterator_tag;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    reference operator*() const { return *it_; }
    pointer operator->() const { return &*it_; }
    const_iterator& operator++() {
      ++it_;
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator out = *this;
      ++*this;
      return out;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.part_ == b.part_ && a.it_ == b.it_;
    }

   private:
    friend class ActivityView;
    const_iterator(std::span<const ActivityTable> parts, std::size_t part,
                   ActivityTable::const_iterator it)
        : parts_(parts), part_(part), it_(it) {
      settle();
    }
    /// Steps past exhausted partitions; end is (parts_.size(), {}).
    void settle() {
      while (part_ < parts_.size() && it_ == parts_[part_].end())
        it_ = ++part_ < parts_.size() ? parts_[part_].begin()
                                      : ActivityTable::const_iterator{};
    }

    std::span<const ActivityTable> parts_;
    std::size_t part_ = 0;
    ActivityTable::const_iterator it_;
  };
  using iterator = const_iterator;

  explicit ActivityView(std::span<const ActivityTable> parts) noexcept
      : parts_(parts) {}

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Slots allocated across every partition.
  [[nodiscard]] std::size_t capacity() const noexcept;
  [[nodiscard]] float load_factor() const noexcept {
    const std::size_t slots = capacity();
    return slots == 0 ? 0.0f
                      : static_cast<float>(size()) / static_cast<float>(slots);
  }

  [[nodiscard]] const_iterator begin() const {
    return parts_.empty() ? end() : const_iterator{parts_, 0, parts_[0].begin()};
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator{parts_, parts_.size(), {}};
  }
  [[nodiscard]] const_iterator find(net::Ipv4Addr addr) const {
    const std::size_t p = partition_of(addr);
    const auto it = parts_[p].find(addr);
    return it == parts_[p].end() ? end() : const_iterator{parts_, p, it};
  }
  [[nodiscard]] bool contains(net::Ipv4Addr addr) const {
    return parts_[partition_of(addr)].contains(addr);
  }
  [[nodiscard]] const IpActivity& at(net::Ipv4Addr addr) const {
    return parts_[partition_of(addr)].at(addr);
  }
  /// The table of partition `p` (addresses with top bits `p`).
  [[nodiscard]] const ActivityTable& partition(std::size_t p) const {
    return parts_[p];
  }

 private:
  std::span<const ActivityTable> parts_;
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
  /// commutative; the other dissector is consumed. This is
  /// merge_partition() over every partition, then merge_tallies().
  void merge(TrafficDissector&& other);

  /// Folds partition `p` of `other` into this dissector's partition `p`
  /// and leaves other's empty. Touches nothing outside partition `p`, so
  /// threads may fold distinct partitions of the same pair at once.
  void merge_partition(TrafficDissector& other, std::size_t p);

  /// Folds the week-wide tallies that are not partitioned (total bytes).
  void merge_tallies(TrafficDissector& other);

  [[nodiscard]] ActivityView activity() const noexcept {
    return ActivityView{activity_};
  }

  /// Host headers observed per server IP (capped, deduplicated), ordered
  /// by earliest observation — deterministic under any shard split.
  [[nodiscard]] std::vector<std::string> hosts_of(net::Ipv4Addr addr) const;

  /// All port-443 candidates (input to the HTTPS prober), sorted by IP.
  [[nodiscard]] std::vector<net::Ipv4Addr> https_candidates() const;

  /// All identified web-server IPs (call after confirm_https feedback),
  /// sorted by IP.
  [[nodiscard]] std::vector<net::Ipv4Addr> web_servers() const;

  /// Week-level tallies, summed per partition on up to `threads` threads
  /// (exact integer counts, so the result does not depend on the count).
  [[nodiscard]] DissectionSummary summarize(unsigned threads = 1) const;

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

  using HostTable =
      util::FlatHashMap<net::Ipv4Addr, std::vector<HostObservation>>;

  static void note_host(HostTable& table, net::Ipv4Addr server,
                        std::string_view host, std::uint64_t seq);

  /// kPartitions tables each, indexed by partition_of(addr). They start
  /// empty and grow per partition as addresses arrive.
  std::vector<ActivityTable> activity_;
  std::vector<HostTable> hosts_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ixp::classify
