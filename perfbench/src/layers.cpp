// Per-layer passes shared by the traced runs: finish_week's sub-calls
// re-driven one by one, and observe_batch timed batch by batch.
#include <algorithm>

#include "dns/public_suffix.hpp"
#include "probe/metadata_pass.hpp"
#include "probe/sweeps.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ixp;

FinishParts& FinishParts::operator+=(const FinishParts& o) {
  https_candidates_s += o.https_candidates_s;
  https_sweep_s += o.https_sweep_s;
  https_confirm_s += o.https_confirm_s;
  summarize_s += o.summarize_s;
  collect_sort_s += o.collect_sort_s;
  routes_of_s += o.routes_of_s;
  countries_of_s += o.countries_of_s;
  metadata_pass_s += o.metadata_pass_s;
  ips += o.ips;
  candidates += o.candidates;
  confirmed += o.confirmed;
  return *this;
}

FinishParts redrive_finish_week(const World& world, int week,
                                classify::TrafficDissector& d,
                                const core::WeeklyReport& report,
                                Tracer& tracer, Result& result) {
  FinishParts parts;
  auto redrive = tracer.span("core.finish_week.redrive");
  const auto fetch = world.fetcher(week);
  const dns::PublicSuffixList& psl = dns::PublicSuffixList::builtin();

  auto s_cand = tracer.span("classify.https_candidates");
  const std::vector<net::Ipv4Addr> candidates = d.https_candidates();
  parts.https_candidates_s = s_cand.stop();

  auto s_sweep = tracer.span("probe.https_sweep");
  probe::HttpsSweep sweep{world.model->root_store(), psl, 3};
  const probe::HttpsSweepResult swept = sweep.run_with_fetcher(candidates, fetch);
  parts.https_sweep_s = s_sweep.stop();
  parts.candidates = static_cast<double>(swept.funnel.candidates);
  parts.confirmed = static_cast<double>(swept.funnel.confirmed);

  auto s_confirm = tracer.span("probe.https_confirm");
  std::unordered_map<net::Ipv4Addr, x509::CertificateChain> chains;
  for (const net::Ipv4Addr addr : swept.confirmed) {
    d.confirm_https(addr);
    auto fetched = fetch(addr, 1);
    if (!fetched.empty()) chains.emplace(addr, std::move(fetched.front()));
  }
  parts.https_confirm_s = s_confirm.stop();

  auto s_summ = tracer.span("classify.summarize");
  const classify::DissectionSummary summary = d.summarize();
  parts.summarize_s = s_summ.stop();

  auto s_sort = tracer.span("core.collect_sort");
  std::vector<net::Ipv4Addr> addrs;
  addrs.reserve(d.activity().size());
  for (const auto& [addr, info] : d.activity()) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  parts.collect_sort_s = s_sort.stop();

  parts.ips = static_cast<double>(addrs.size());
  std::vector<const net::Route*> routes(addrs.size());
  auto s_routes = tracer.span("net.routes_of");
  world.model->routing().routes_of(addrs, routes);
  parts.routes_of_s = s_routes.stop();
  std::vector<const geo::CountryCode*> countries(addrs.size());
  auto s_geo = tracer.span("geo.countries_of");
  world.model->geo_db().countries_of(addrs, countries);
  parts.countries_of_s = s_geo.stop();

  // The metadata items finish_week builds inside its tally loop: every web
  // server in address order, with its Host headers and confirmed chain.
  std::vector<net::Ipv4Addr> servers;
  std::vector<std::vector<std::string>> hosts;
  {
    auto s_items = tracer.span("harness.metadata_items");
    for (const net::Ipv4Addr addr : addrs) {
      if (!d.activity().at(addr).web_server()) continue;
      servers.push_back(addr);
      hosts.push_back(d.hosts_of(addr));
    }
  }
  std::vector<probe::MetadataItem> items;
  items.reserve(servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const auto it = chains.find(servers[i]);
    items.push_back(
        {servers[i], hosts[i], it == chains.end() ? nullptr : &it->second});
  }
  auto s_meta = tracer.span("probe.metadata_pass");
  const probe::MetadataPass pass{world.model->dns_db(), psl};
  const probe::MetadataPassResult harvested = pass.run(items);
  parts.metadata_pass_s = s_meta.stop();

  // The re-drive must reproduce what finish_week reported.
  const classify::ProbeFunnel& f = report.https_funnel;
  result.check(swept.funnel.candidates == f.candidates &&
                   swept.funnel.responded == f.responded &&
                   swept.funnel.confirmed == f.confirmed,
               "re-driven HTTPS funnel differs from the report");
  result.check(summary == report.dissection,
               "re-driven dissection summary differs from the report");
  result.check(servers.size() == report.server_ips &&
                   harvested.metadata.size() == report.servers.size(),
               "re-driven server set differs from the report");

  return parts;
}

void emit_finish_parts(const FinishParts& parts, double finish_s,
                       Layers& layers) {
  layers["core.finish_week_s"] = finish_s;
  layers["classify.https_candidates_s"] = parts.https_candidates_s;
  layers["probe.https_sweep_s"] = parts.https_sweep_s;
  layers["probe.https_confirm_s"] = parts.https_confirm_s;
  layers["probe.https_confirmed_ratio"] =
      parts.candidates > 0 ? parts.confirmed / parts.candidates : 0.0;
  layers["classify.summarize_s"] = parts.summarize_s;
  layers["core.collect_sort_s"] = parts.collect_sort_s;
  const double ips = std::max(1.0, parts.ips);
  layers["net.routes_of_ns_per_ip"] = parts.routes_of_s * 1e9 / ips;
  layers["geo.countries_of_ns_per_ip"] = parts.countries_of_s * 1e9 / ips;
  layers["probe.metadata_pass_s"] = parts.metadata_pass_s;
  // What finish_week spends outside the sub-calls: the per-IP tally loop
  // and the set and map inserts that build the report.
  layers["core.aggregate_residual_s"] =
      finish_s - (parts.https_candidates_s + parts.https_sweep_s +
                  parts.https_confirm_s + parts.summarize_s +
                  parts.collect_sort_s + parts.routes_of_s +
                  parts.countries_of_s + parts.metadata_pass_s);
}

double timed_observe(core::WeekShard& shard, ingest::IngestSource& source,
                     Tracer& tracer) {
  double observe_s = 0.0;
  std::uint64_t calls = 0;
  ingest::SampleBatch batch;
  while (source.next_batch(batch) == ingest::SourceStatus::kBatch) {
    const auto t0 = Clock::now();
    shard.observe_batch(batch.samples, batch.first_seq);
    observe_s += seconds_since(t0);
    ++calls;
  }
  tracer.aggregate("core.observe_batch", observe_s, calls);
  return observe_s;
}

}  // namespace perfbench
