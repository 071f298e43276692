// Weekly traffic generation.
//
// Workload turns the InternetModel into the stream of sampled Ethernet
// frames the IXP's sFlow collector would deliver for one week. The stream
// composition follows §2.2.1's filtering percentages (non-IPv4 ~0.4%,
// non-member/local ~0.6%, non-TCP/UDP <0.5%, TCP:UDP 82:18 by bytes) and
// §2.2.2's server-traffic share (>70% of peering bytes). Each emitted
// sample stands for `sampling_rate` real packets, exactly as an sFlow
// estimator would treat it.
//
// Generation is deterministic per (model seed, week): re-generating a week
// produces the identical stream. The draws run on a producer thread of
// their own while the consumer pulls batches of them: WeekSource hands a
// week to the analysis engine as an ingest::IngestSource, and
// generate_week is a loop over one (DESIGN.md §9.4).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gen/internet.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/datagram.hpp"
#include "sflow/sampler.hpp"

namespace ixp::util {
class BackgroundTask;
}  // namespace ixp::util

namespace ixp::gen {

/// Receives every generated sample. generate_week calls it on the calling
/// thread, once per sample, in stream order (strictly increasing
/// `sequence`), never concurrently with itself. The FlowSample reference
/// is only valid during the call (the workload reuses its buffers). If
/// the sink throws, generation stops and the exception reaches the
/// caller. Every helper thread is joined before generate_week returns or
/// throws, so nothing of it is running when, say, core::ProcessPool
/// forks afterwards.
using SampleSink = std::function<void(const sflow::FlowSample&)>;

/// Ground truth accompanying one generated week, for validating what the
/// measurement pipeline reconstructs.
struct WeeklyTruth {
  int week = 0;
  std::uint64_t total_samples = 0;
  std::uint64_t non_ipv4_samples = 0;
  std::uint64_t non_member_or_local_samples = 0;
  std::uint64_t non_tcp_udp_samples = 0;
  std::uint64_t peering_samples = 0;

  double peering_bytes = 0.0;  // expanded (x sampling rate)
  double tcp_bytes = 0.0;
  double udp_bytes = 0.0;
  double server_bytes = 0.0;  // bytes of flows involving a server IP

  std::size_t active_visible_servers = 0;
};

class Workload {
 public:
  /// The hand-off ring between the producer and the consumer of a week:
  /// kRingBatches batches of kRingBatchSamples samples, about 0.6 MB.
  static constexpr std::size_t kRingBatches = 4;
  static constexpr std::size_t kRingBatchSamples = 1024;

  explicit Workload(const InternetModel& model);

  /// Generates the full sample stream of `week` into `sink`: pulls a
  /// WeekSource to its end and delivers every sample of every batch. An
  /// exception on either side stops the other and is rethrown here.
  WeeklyTruth generate_week(int week, const SampleSink& sink) const;

  /// Indices of servers that are visible and active in `week`.
  [[nodiscard]] std::vector<std::uint32_t> active_visible_servers(int week) const;

  [[nodiscard]] const InternetModel& model() const noexcept { return *model_; }

 private:
  friend class WeekSource;
  struct ActiveSet;
  class SampleRing;

  /// The producer half of a WeekSource: draws the stream of `week` into
  /// `ring` and returns its truth.
  WeeklyTruth draw_week(int week, SampleRing& ring) const;

  /// Where traffic enters the fabric: the port MAC a frame carries as its
  /// source and the switch port its sample is exported from (0 when the
  /// MAC is not a member port).
  struct EntryPort {
    sflow::MacAddr mac;
    std::uint32_t port = 0;
  };

  /// One routed prefix as background traffic draws it: the prefix, its
  /// AS index and how many deterministic active hosts it exposes.
  struct BackgroundPrefix {
    net::Ipv4Prefix prefix;
    std::uint32_t as_index = 0;
    std::uint32_t active_hosts = 0;
  };

  /// Entry-port MAC for traffic of AS `as_index` in `week`; falls back to
  /// an off-fabric MAC when the entry member has not joined yet.
  [[nodiscard]] sflow::MacAddr entry_mac(std::uint32_t as_index, int week) const;

  /// entry_mac() and its ingress port for every AS, resolved once per week.
  [[nodiscard]] std::vector<EntryPort> entry_ports(int week) const;

  /// Random background host: address + its AS index.
  [[nodiscard]] std::pair<net::Ipv4Addr, std::uint32_t> background_pick(
      util::Rng& rng) const;

  /// Host header for a flow served by `server` (a site of its content org,
  /// biased towards the org's popular sites).
  [[nodiscard]] const dns::DnsName& flow_host(const ServerRecord& server,
                                              util::Rng& rng) const;

  /// Fig. 7's transit detour: home-AS servers of orgs with a nonzero
  /// indirect fraction occasionally enter via a transit member's port.
  /// Returns that port, or nullptr when the flow takes its usual path.
  [[nodiscard]] const EntryPort* routing_detour(const ServerRecord& server,
                                                util::Rng& rng) const;

  const InternetModel* model_;
  std::vector<EntryPort> transits_;  // founding transit/tier1 ports
  /// Per-org damping factor for servers deployed outside the org's home
  /// AS: in-ISP CDN deployments serve their host network internally, so
  /// only a sliver of their traffic crosses the IXP (this is what keeps
  /// Akamai's indirect share at the paper's 11.1% even though >half of
  /// its servers sit in third-party ASes). 1.0 = no damping.
  std::vector<double> org_offsite_damping_;
  /// True when the org has at least one visible server outside its home
  /// AS (such orgs get placement-driven indirection; single-footprint
  /// orgs get the routing-detour path instead).
  std::vector<bool> org_has_offsite_;
  // Per-prefix sampling structures for background traffic: prefixes are
  // drawn by AS activity weight; each prefix exposes a bounded set of
  // deterministic "active hosts".
  std::unique_ptr<util::WeightedSampler> prefix_sampler_;
  std::vector<BackgroundPrefix> background_prefixes_;  // indexed like prefixes()
  // Per-org site ranks for Host headers.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> org_sites_;
};

/// One generated week, pulled batch by batch: the consumer half of the
/// workload's sample ring, as an ingest::IngestSource. Construction starts
/// the producer thread. Each next_batch() hands out a view of one ring
/// batch (kRingBatchSamples samples, the last one shorter) and gives the
/// batch it handed out before back to the producer. Keys are running
/// sample indices from 0, exactly ingest::SpanSource's over the same
/// stream, so a pulled week reduces to the same shard and report as a
/// collected one. split() stays empty: core::ParallelAnalyzer pumps the
/// source from one thread while generation runs beside it. An exception
/// the producer throws reaches the caller from next_batch(). The
/// destructor stops and joins the producer, so no thread outlives the
/// source (core::ProcessPool forks between weeks). The workload must
/// outlive the source.
class WeekSource final : public ingest::IngestSource {
 public:
  WeekSource(const Workload& workload, int week);
  ~WeekSource() override;

  WeekSource(const WeekSource&) = delete;
  WeekSource& operator=(const WeekSource&) = delete;

  ingest::SourceStatus next_batch(ingest::SampleBatch& out) override;

  /// The week's ground truth; valid once next_batch() returned kEnd.
  [[nodiscard]] const WeeklyTruth& truth() const noexcept { return truth_; }

 private:
  std::unique_ptr<Workload::SampleRing> ring_;
  WeeklyTruth truth_;  // written by the producer, read after its join
  std::unique_ptr<util::BackgroundTask> producer_;
  std::size_t next_ = 0;         // the ring batch the next pull hands out
  std::uint64_t first_seq_ = 0;  // running index of that batch's first sample
  bool ended_ = false;
};

}  // namespace ixp::gen
