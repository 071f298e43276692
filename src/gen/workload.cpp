#include "gen/workload.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "util/background_task.hpp"
#include "util/zipf.hpp"

namespace ixp::gen {

namespace {

// Stream-category sample fractions (Figure 1's filtering percentages).
constexpr double kNonIpv4Fraction = 0.004;
constexpr double kNonMemberLocalFraction = 0.006;
constexpr double kNonTcpUdpFraction = 0.0045;

// Weekly traffic growth: 11.9 PB/day in week 35 -> 14.5 PB/day in week 51.
double growth_factor(int week) {
  return 1.0 + 0.0137 * static_cast<double>(week - 35);
}

std::span<const std::byte> as_bytes(const char* text, std::size_t len) {
  return {reinterpret_cast<const std::byte*>(text), len};
}

}  // namespace

Workload::Workload(const InternetModel& model) : model_(&model) {
  const auto& prefixes = model.prefixes();
  const auto& ases = model.ases();
  const std::size_t pool = model.config().background_ip_pool;

  // Two weightings per prefix: the *IP share* (how many distinct hosts a
  // prefix exposes; Table 3's IPs row) and the *byte share* (how much
  // traffic those hosts exchange; Table 3's traffic row). Member-AS hosts
  // are individually much busier: 42.3% of the IPs carry 67.3% of the
  // traffic, while distance->=2 hosts are numerous but quiet.
  const auto byte_factor = [](net::Locality locality) {
    switch (locality) {
      case net::Locality::kMember: return 1.85;
      case net::Locality::kNear: return 0.72;
      default: return 0.38;
    }
  };
  std::vector<double> prefix_weights(prefixes.size());
  std::vector<double> byte_weights(prefixes.size());
  double total_weight = 0.0;
  for (std::size_t p = 0; p < prefixes.size(); ++p) {
    const AsRecord& as = ases[prefixes[p].as_index];
    prefix_weights[p] =
        as.prefix_count > 0 ? as.background_weight / as.prefix_count : 0.0;
    byte_weights[p] = prefix_weights[p] * byte_factor(as.locality);
    total_weight += prefix_weights[p];
  }
  prefix_sampler_ = std::make_unique<util::WeightedSampler>(byte_weights);
  background_prefixes_.resize(prefixes.size());
  for (std::size_t p = 0; p < prefixes.size(); ++p) {
    const double share =
        total_weight > 0.0 ? prefix_weights[p] / total_weight : 0.0;
    const auto hosts = static_cast<std::uint32_t>(std::max<double>(
        2.0, std::min<double>(static_cast<double>(prefixes[p].prefix.size()) * 0.6,
                              share * static_cast<double>(pool))));
    background_prefixes_[p] = {prefixes[p].prefix, prefixes[p].as_index, hosts};
  }

  for (std::uint32_t rank = 0; rank < model.sites().size(); ++rank) {
    const auto& site = model.sites()[rank];
    org_sites_[site.cdn.value_or(site.org)].push_back(rank);
  }

  for (const fabric::Member& member : model.ixp().all_members()) {
    if (member.join_week > model.config().first_week) continue;
    if (member.kind == fabric::MemberKind::kTier1 ||
        member.kind == fabric::MemberKind::kTransit) {
      const fabric::Member* port = model.ixp().member_by_mac(member.port_mac);
      transits_.push_back({member.port_mac, port != nullptr ? port->port_id : 0});
    }
  }

  // Offsite damping per org: choose the factor so that the org's
  // IXP-visible traffic splits home:offsite = (1-f):f where f is the
  // catalog's indirect_link_fraction, given the home/offsite server
  // counts. Orgs without offsite servers keep factor 1 and get their
  // indirection from transit detours instead.
  org_offsite_damping_.assign(model.orgs().size(), 1.0);
  org_has_offsite_.assign(model.orgs().size(), false);
  std::vector<double> home_weight(model.orgs().size(), 0.0);
  std::vector<double> offsite_weight(model.orgs().size(), 0.0);
  for (const ServerRecord& server : model.servers()) {
    if (!server.visible()) continue;
    const OrgRecord& org = model.orgs()[server.org];
    const bool home = org.home_as && server.host_as == *org.home_as;
    (home ? home_weight : offsite_weight)[server.org] += server.traffic_weight;
  }
  for (std::uint32_t o = 0; o < model.orgs().size(); ++o) {
    if (offsite_weight[o] <= 0.0) continue;
    org_has_offsite_[o] = true;
    const double f = model.orgs()[o].indirect_link_fraction;
    if (f <= 0.0 || f >= 1.0 || home_weight[o] <= 0.0) continue;
    org_offsite_damping_[o] =
        (home_weight[o] / offsite_weight[o]) * (f / (1.0 - f));
  }
}

std::pair<net::Ipv4Addr, std::uint32_t> Workload::background_pick(
    util::Rng& rng) const {
  // Prefix by AS activity weight (Table 3's IP shares), then one of the
  // prefix's deterministic active hosts.
  const std::size_t p = prefix_sampler_->sample(rng);
  const BackgroundPrefix& entry = background_prefixes_[p];
  const std::uint64_t j = rng.next_below(entry.active_hosts);
  const std::uint64_t h = util::mix64(
      model_->config().seed ^ (static_cast<std::uint64_t>(p) << 24) ^ j);
  return {entry.prefix.address_at(1 + h % (entry.prefix.size() - 2)),
          entry.as_index};
}

const dns::DnsName& Workload::flow_host(const ServerRecord& server,
                                        util::Rng& rng) const {
  const auto it = org_sites_.find(server.content_org);
  if (it == org_sites_.end() || it->second.empty())
    return model_->orgs()[server.content_org].domain;
  // Strong head bias towards the org's most popular sites (rank-driven
  // request popularity; keeps the long tail of sites rarely observable,
  // which the §3.3 Alexa-recovery percentages depend on).
  const double u = rng.next_double();
  const auto pick = static_cast<std::size_t>(
      u * u * u * u * static_cast<double>(it->second.size()));
  return model_->sites()[it->second[std::min(pick, it->second.size() - 1)]].domain;
}

const Workload::EntryPort* Workload::routing_detour(const ServerRecord& server,
                                                    util::Rng& rng) const {
  if (transits_.empty()) return nullptr;
  const OrgRecord& org = model_->orgs()[server.org];
  if (org.indirect_link_fraction <= 0.0) return nullptr;
  if (!org.home_as || server.host_as != *org.home_as) return nullptr;  // already indirect
  // Orgs with third-party deployments get their indirection from server
  // placement; the transit detour models single-footprint players
  // (CloudFlare's data centers, EC2) whose bytes still arrive over other
  // members' ports at peak times (§5.3).
  if (org_has_offsite_[server.org]) return nullptr;
  if (!rng.next_bool(org.indirect_link_fraction)) return nullptr;
  return &transits_[rng.next_below(transits_.size())];
}

sflow::MacAddr Workload::entry_mac(std::uint32_t as_index, int week) const {
  const AsRecord& as = model_->ases()[as_index];
  const AsRecord& entry = model_->ases()[as.entry_member];
  if (entry.member && entry.join_week <= week)
    return fabric::Ixp::port_mac_for(entry.asn);
  // Entry member not on the fabric yet (a later joiner): until it joins,
  // its traffic reaches the IXP through a transit member.
  if (!transits_.empty())
    return transits_[entry.asn.value() % transits_.size()].mac;
  return sflow::MacAddr::from_id(0xD00D00000000ULL + entry.asn.value());
}

std::vector<Workload::EntryPort> Workload::entry_ports(int week) const {
  const std::size_t n = model_->ases().size();
  std::vector<EntryPort> ports(n);
  for (std::uint32_t a = 0; a < n; ++a) {
    const sflow::MacAddr mac = entry_mac(a, week);
    const fabric::Member* member = model_->ixp().member_by_mac(mac);
    ports[a] = {mac, member != nullptr ? member->port_id : 0};
  }
  return ports;
}

std::vector<std::uint32_t> Workload::active_visible_servers(int week) const {
  std::vector<std::uint32_t> active;
  const auto& servers = model_->servers();
  active.reserve(servers.size() / 2);
  for (std::uint32_t s = 0; s < servers.size(); ++s) {
    if (!servers[s].visible()) continue;
    if (model_->server_active(s, week)) active.push_back(s);
  }
  return active;
}

struct Workload::ActiveSet {
  std::vector<std::uint32_t> servers;
  std::vector<double> weights;
  std::vector<std::uint32_t> dual_initiators;
};

/// The hand-off between a week's producer thread and its consumer (a
/// WeekSource): a fixed ring of kRingBatches batches of kRingBatchSamples
/// samples. The producer builds each sample in place in slot() and
/// commit()s it; a full batch is handed over, and the producer blocks
/// while every batch is handed over and not yet released. The consumer
/// take()s whole batches in order and release()s each once it is done
/// with it. stop(), from either side, ends the run: the producer's next
/// hand-off throws Stopped, and take() reports the end.
class Workload::SampleRing {
 public:
  /// Thrown in the producer once the consumer has stopped.
  struct Stopped {};

  /// Every slot starts as `blank`; the producer overwrites the fields
  /// that vary per sample.
  explicit SampleRing(const sflow::FlowSample& blank)
      : slots_(kRingBatches * kRingBatchSamples, blank) {}

  // --- producer side --------------------------------------------------------
  /// The slot the next sample is built in.
  [[nodiscard]] sflow::FlowSample& slot() noexcept {
    return slots_[(produced_ % kRingBatches) * kRingBatchSamples + fill_];
  }

  /// Commits slot(); hands the batch over when it is full.
  void commit() {
    if (++fill_ < kRingBatchSamples) return;
    std::unique_lock lock{mutex_};
    publish();
    wake_.wait(lock, [&] {
      return produced_ - consumed_ < kRingBatches || stopped_;
    });
    if (stopped_) throw Stopped{};
  }

  /// Hands over the last, partial batch and ends the stream.
  void finish() {
    const std::lock_guard lock{mutex_};
    if (fill_ > 0) publish();
    done_ = true;
    wake_.notify_all();
  }

  // --- either side ----------------------------------------------------------
  void stop() noexcept {
    const std::lock_guard lock{mutex_};
    stopped_ = true;
    wake_.notify_all();
  }

  // --- consumer side --------------------------------------------------------
  /// Waits for batch `index` and returns its samples; empty once the
  /// stream ended before it or either side stopped.
  std::span<const sflow::FlowSample> take(std::size_t index) {
    std::size_t size = 0;
    {
      std::unique_lock lock{mutex_};
      wake_.wait(lock, [&] { return produced_ > index || done_ || stopped_; });
      if (stopped_ || produced_ == index) return {};
      size = sizes_[index % kRingBatches];
    }
    return {&slots_[(index % kRingBatches) * kRingBatchSamples], size};
  }

  /// Gives batch `index` (and every one before it) back to the producer.
  void release(std::size_t index) {
    const std::lock_guard lock{mutex_};
    consumed_ = index + 1;
    wake_.notify_all();
  }

 private:
  /// Hands over the batch being filled. Requires mutex_.
  void publish() {
    sizes_[produced_ % kRingBatches] = fill_;
    ++produced_;
    fill_ = 0;
    wake_.notify_all();
  }

  std::vector<sflow::FlowSample> slots_;
  std::size_t fill_ = 0;  // producer only: samples in the batch being filled
  std::mutex mutex_;
  std::condition_variable wake_;
  // Guarded by mutex_. produced_ is written only by the producer, which
  // also reads it unlocked.
  std::size_t sizes_[kRingBatches] = {};
  std::size_t produced_ = 0;  // batches handed over
  std::size_t consumed_ = 0;  // batches released
  bool done_ = false;
  bool stopped_ = false;
};

WeeklyTruth Workload::generate_week(int week, const SampleSink& sink) const {
  WeekSource source{*this, week};
  ingest::SampleBatch batch;
  while (source.next_batch(batch) == ingest::SourceStatus::kBatch)
    for (const sflow::FlowSample& sample : batch.samples) sink(sample);
  return source.truth();
}

namespace {

sflow::FlowSample blank_sample() {
  sflow::FlowSample blank;
  blank.sampling_rate = sflow::kPaperSamplingRate;
  return blank;
}

}  // namespace

WeekSource::WeekSource(const Workload& workload, int week)
    : ring_(std::make_unique<Workload::SampleRing>(blank_sample())) {
  producer_ = std::make_unique<util::BackgroundTask>([this, &workload, week] {
    try {
      truth_ = workload.draw_week(week, *ring_);
      ring_->finish();
    } catch (...) {
      ring_->stop();
      throw;
    }
  });
}

WeekSource::~WeekSource() {
  ring_->stop();
  producer_.reset();  // joins; a producer error nobody pulled is dropped
}

ingest::SourceStatus WeekSource::next_batch(ingest::SampleBatch& out) {
  if (ended_) return ingest::SourceStatus::kEnd;
  if (next_ > 0) ring_->release(next_ - 1);
  const std::span<const sflow::FlowSample> batch = ring_->take(next_);
  if (batch.empty()) {
    ended_ = true;
    producer_->join();  // rethrows what the producer threw
    return ingest::SourceStatus::kEnd;
  }
  out.samples = batch;
  out.first_seq = first_seq_;
  first_seq_ += batch.size();
  ++next_;
  return ingest::SourceStatus::kBatch;
}

WeeklyTruth Workload::draw_week(int week, SampleRing& ring) const {
  const InternetModel& model = *model_;
  const ScaleConfig& cfg = model.config();
  util::Rng rng = util::Rng{cfg.seed}.fork(0x3ee4 + static_cast<std::uint64_t>(week));

  WeeklyTruth truth;
  truth.week = week;

  // --- active servers and their sampling weights ---------------------------
  ActiveSet active;
  active.servers = active_visible_servers(week);
  truth.active_visible_servers = active.servers.size();

  // Per-org total visible weight (constant denominator so that an org's
  // traffic scales with how many of its servers are active — EC2/Netflix
  // growth and the hurricane dip need this).
  std::vector<double> org_total(model.orgs().size(), 0.0);
  for (const ServerRecord& server : model.servers()) {
    if (server.visible()) org_total[server.org] += server.traffic_weight;
  }
  active.weights.reserve(active.servers.size());
  for (const std::uint32_t s : active.servers) {
    const ServerRecord& server = model.servers()[s];
    const OrgRecord& org = model.orgs()[server.org];
    const double denom = org_total[server.org];
    double weight =
        denom > 0.0 ? org.traffic_share * server.traffic_weight / denom : 0.0;
    // In-ISP deployments serve their host network internally; only a
    // damped share of their traffic crosses the IXP.
    if (org.home_as && server.host_as != *org.home_as)
      weight *= org_offsite_damping_[server.org];
    active.weights.push_back(weight);
    if (server.dual_role) active.dual_initiators.push_back(s);
  }
  const util::WeightedSampler server_sampler{active.weights};

  // --- sample emission -------------------------------------------------------
  // Each sample is written into its ring slot; the slot already carries
  // the sampling rate.
  std::uint32_t sequence = 0;
  const auto emit = [&](const sflow::SampledFrame& frame,
                        std::uint32_t ingress_port) {
    sflow::FlowSample& sample = ring.slot();
    sample.sequence = sequence++;
    sample.source_port = ingress_port;
    sample.frame = frame;
    ring.commit();
    ++truth.total_samples;
  };

  const std::vector<EntryPort> ports = entry_ports(week);

  const double growth = growth_factor(week);
  const auto background_n =
      static_cast<std::uint64_t>(growth * static_cast<double>(cfg.weekly_background_samples));
  const auto server_n =
      static_cast<std::uint64_t>(growth * static_cast<double>(cfg.weekly_server_flows));
  const std::uint64_t total_n = background_n + server_n;

  // ---------------------------------------------------------------------
  // 1. Server-related traffic (>70% of peering bytes).
  // ---------------------------------------------------------------------
  char payload[128];
  for (std::uint64_t f = 0; f < server_n && !active.servers.empty(); ++f) {
    const std::size_t pick = server_sampler.sample(rng);
    const std::uint32_t server_id = active.servers[pick];
    const ServerRecord& server = model.servers()[server_id];

    // Client endpoint: mostly pool clients; ~10% of server traffic is
    // machine-to-machine from dual-role servers (§2.2.2).
    net::Ipv4Addr client_ip;
    std::uint32_t client_as;
    if (!active.dual_initiators.empty() && rng.next_bool(0.10)) {
      const ServerRecord& initiator =
          model.servers()[active.dual_initiators[rng.next_below(
              active.dual_initiators.size())]];
      client_ip = initiator.addr;
      client_as = initiator.host_as;
    } else {
      const InternetModel::ClientAddr& client =
          model.client_addr(rng.next_below(cfg.client_pool));
      client_ip = client.addr;
      client_as = client.as_index;
    }

    // Port / protocol choice.
    const bool https_active = (server.roles & kRoleHttps) != 0 &&
                              week >= server.https_since;
    const bool rtmp = (server.roles & kRoleRtmp) != 0 && rng.next_bool(0.35);
    // HTTPS adoption grows through the period (§4.2).
    const double https_p =
        https_active ? ((server.roles & kRoleHttp) == 0
                            ? 1.0
                            : 0.38 + 0.012 * static_cast<double>(week - 35))
                     : 0.0;
    std::uint16_t server_port = 80;
    if (rtmp) {
      server_port = 1935;
    } else if (https_active && rng.next_bool(https_p)) {
      server_port = 443;
    } else if (rng.next_bool(0.10)) {
      server_port = 8080;
    }

    const bool response_dir = rng.next_bool(0.82);
    const auto client_port =
        static_cast<std::uint16_t>(32768 + rng.next_below(28000));

    sflow::FrameSpec spec;
    // Indirect link usage (Fig. 7): servers hosted outside the org's home
    // AS enter via that AS's member; servers at home occasionally route
    // via a transit member.
    EntryPort src_entry;
    EntryPort dst_entry;
    if (response_dir) {
      spec.src_ip = server.addr;
      spec.dst_ip = client_ip;
      spec.src_port = server_port;
      spec.dst_port = client_port;
      src_entry = ports[server.host_as];
      dst_entry = ports[client_as];
    } else {
      spec.src_ip = client_ip;
      spec.dst_ip = server.addr;
      spec.src_port = client_port;
      spec.dst_port = server_port;
      src_entry = ports[client_as];
      dst_entry = ports[server.host_as];
    }
    if (const EntryPort* detour = routing_detour(server, rng))
      (response_dir ? src_entry : dst_entry) = *detour;
    spec.src_mac = src_entry.mac;
    spec.dst_mac = dst_entry.mac;

    // Frame + payload.
    std::size_t payload_len = 0;
    std::size_t payload_total;
    std::uint16_t wire_len;
    if (response_dir) {
      wire_len = static_cast<std::uint16_t>(1400 + rng.next_below(115));
      payload_total = wire_len - 54;
      if (server_port != 443 && server_port != 1935 && rng.next_bool(0.50)) {
        payload_len = static_cast<std::size_t>(std::snprintf(
            payload, sizeof payload,
            "HTTP/1.1 200 OK\r\nServer: ixpsrv\r\nContent-Type: text/html\r\n"
            "Content-Length: %u\r\n\r\n",
            static_cast<unsigned>(1000 + rng.next_below(900000))));
      }
    } else {
      wire_len = static_cast<std::uint16_t>(80 + rng.next_below(500));
      payload_total = wire_len - 54;
      if (server_port != 443 && server_port != 1935 && rng.next_bool(0.85)) {
        // Only a minority of servers expose usable Host headers in the
        // sampled snippets (§2.4: URIs recovered for 23.8% of servers);
        // the rest see requests whose Host was not captured. A small
        // share carries unusable values (IP literals, bare names) that
        // the cleaning step removes.
        if (!server.serves_uris) {
          payload_len = static_cast<std::size_t>(std::snprintf(
              payload, sizeof payload,
              "GET /c%u HTTP/1.1\r\nAccept: */*\r\nConnection: keep-alive\r\n",
              static_cast<unsigned>(rng.next_below(100000))));
        } else {
          const char* host_text;
          if (rng.next_bool(0.02)) {
            host_text = rng.next_bool(0.5) ? "203.0.113.9" : "intranet";
          } else {
            host_text = flow_host(server, rng).text().c_str();
          }
          payload_len = static_cast<std::size_t>(std::snprintf(
              payload, sizeof payload,
              "GET /c%u HTTP/1.1\r\nHost: %s\r\nAccept: */*\r\n\r\n",
              static_cast<unsigned>(rng.next_below(100000)), host_text));
        }
      }
    }
    if (payload_len > sizeof payload) payload_len = sizeof payload;
    payload_total = std::max(payload_total, payload_len);
    spec.frame_length = wire_len;

    emit(sflow::build_tcp_frame(
             spec, as_bytes(payload, payload_len), payload_total,
             sflow::TcpHeader::kAck | sflow::TcpHeader::kPsh),
         src_entry.port);

    const double bytes =
        static_cast<double>(wire_len) * sflow::kPaperSamplingRate;
    truth.peering_bytes += bytes;
    truth.tcp_bytes += bytes;
    truth.server_bytes += bytes;
    ++truth.peering_samples;
  }

  // ---------------------------------------------------------------------
  // 2. Background peering traffic (non-server: P2P, mail, DNS, games...).
  // ---------------------------------------------------------------------
  for (std::uint64_t b = 0; b < background_n; ++b) {
    const auto [src, src_as] = background_pick(rng);
    const auto [dst, dst_as] = background_pick(rng);

    sflow::FrameSpec spec;
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.src_mac = ports[src_as].mac;
    spec.dst_mac = ports[dst_as].mac;
    spec.src_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
    spec.dst_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));

    const bool udp = rng.next_bool(0.62);
    // Firewall-evading traffic on TCP 443 (SSH tunnels, VPNs, Skype):
    // these endpoints become HTTPS-prober candidates that never deliver a
    // certificate — the top of §2.2.2's 1.5M -> 500K -> 250K funnel.
    if (!udp && rng.next_bool(0.02)) spec.dst_port = 443;
    const auto wire_len = static_cast<std::uint16_t>(
        udp ? 120 + rng.next_below(600) : 90 + rng.next_below(560));
    spec.frame_length = wire_len;
    const std::size_t l4_header = udp ? 8u : 20u;
    const std::size_t payload_total = wire_len - 34 - l4_header;
    emit(udp ? sflow::build_udp_frame(spec, {}, payload_total)
             : sflow::build_tcp_frame(spec, {}, payload_total),
         ports[src_as].port);

    const double bytes =
        static_cast<double>(wire_len) * sflow::kPaperSamplingRate;
    truth.peering_bytes += bytes;
    (udp ? truth.udp_bytes : truth.tcp_bytes) += bytes;
    ++truth.peering_samples;
  }

  // ---------------------------------------------------------------------
  // 3. Member-to-member IPv4 that is not TCP/UDP (ICMP etc., <0.5%).
  // ---------------------------------------------------------------------
  const auto icmp_n = static_cast<std::uint64_t>(
      kNonTcpUdpFraction * static_cast<double>(total_n));
  for (std::uint64_t i = 0; i < icmp_n; ++i) {
    const auto [src, src_as] = background_pick(rng);
    const auto [dst, dst_as] = background_pick(rng);
    sflow::FrameSpec spec;
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.src_mac = ports[src_as].mac;
    spec.dst_mac = ports[dst_as].mac;
    const sflow::IpProto proto =
        rng.next_bool(0.8) ? sflow::IpProto::kIcmp
                           : (rng.next_bool(0.5) ? sflow::IpProto::kGre
                                                 : sflow::IpProto::kEsp);
    emit(sflow::build_ipv4_frame(spec, proto, 80 + rng.next_below(1100)),
         ports[src_as].port);
    truth.non_tcp_udp_samples += 1;
  }

  // ---------------------------------------------------------------------
  // 4. Non-IPv4 frames (native IPv6 and a little ARP, ~0.4%).
  // ---------------------------------------------------------------------
  const auto members = model.ixp().members_at(week);
  const auto member_mac = [&]() {
    return members[rng.next_below(members.size())]->port_mac;
  };
  const auto non_ipv4_n = static_cast<std::uint64_t>(
      kNonIpv4Fraction * static_cast<double>(total_n));
  for (std::uint64_t i = 0; i < non_ipv4_n; ++i) {
    const sflow::EtherType type = rng.next_bool(0.93) ? sflow::EtherType::kIpv6
                                                      : sflow::EtherType::kArp;
    emit(sflow::build_other_frame(member_mac(), member_mac(), type,
                                  80 + rng.next_below(1200)),
         0);
    truth.non_ipv4_samples += 1;
  }

  // ---------------------------------------------------------------------
  // 5. Non-member and local traffic (IXP management, route servers, ~0.6%).
  // ---------------------------------------------------------------------
  const auto local_n = static_cast<std::uint64_t>(
      kNonMemberLocalFraction * static_cast<double>(total_n));
  for (std::uint64_t i = 0; i < local_n; ++i) {
    sflow::FrameSpec spec;
    spec.src_ip = net::Ipv4Addr{198, 18, 0, static_cast<std::uint8_t>(rng.next_below(250))};
    spec.dst_ip = net::Ipv4Addr{198, 18, 1, static_cast<std::uint8_t>(rng.next_below(250))};
    spec.src_port = 179;  // route-server BGP chatter
    spec.dst_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
    if (rng.next_bool(0.5)) {
      // Local: one side is the IXP's management MAC.
      spec.src_mac = model.ixp().management_mac();
      spec.dst_mac = member_mac();
    } else {
      // Non-member: an off-fabric MAC.
      spec.src_mac = sflow::MacAddr::from_id(0xBAD0000000ULL + rng.next_below(1000));
      spec.dst_mac = member_mac();
    }
    spec.frame_length = static_cast<std::uint16_t>(100 + rng.next_below(1200));
    emit(sflow::build_tcp_frame(spec, {}, 40), 0);
    truth.non_member_or_local_samples += 1;
  }

  return truth;
}

}  // namespace ixp::gen
