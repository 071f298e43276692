// §5.1 — the server-clustering methodology and its validation (week 45),
// with the DESIGN.md ablations.
//
// Paper: step 1 clusters 78.7% of server IPs, step 2 17.4%, step 3 3.9%;
// ~21K organizations result; manual validation finds a false-positive
// rate below 3%, decreasing with the organization's footprint size.
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

struct Validation {
  std::size_t clustered = 0;
  std::size_t correct = 0;
  double fp_small = 0.0;  // FP rate among clusters with <10 servers
  double fp_large = 0.0;  // FP rate among clusters with >=10 servers

  [[nodiscard]] double fp_rate() const {
    return clustered == 0
               ? 0.0
               : 1.0 - static_cast<double>(correct) / static_cast<double>(clustered);
  }
};

Validation validate(const Context& ctx,
                    const core::ClusteringResult& clustering) {
  Validation v;
  std::size_t small_total = 0;
  std::size_t small_wrong = 0;
  std::size_t large_total = 0;
  std::size_t large_wrong = 0;
  for (const auto& [authority, members] : clustering.clusters) {
    const bool large = members.size() >= 10;
    for (const net::Ipv4Addr addr : members) {
      const auto index = ctx.model().server_by_addr(addr);
      if (!index) continue;
      ++v.clustered;
      const auto& truth = ctx.model().orgs()[ctx.model().servers()[*index].org];
      const bool ok = truth.domain == authority;
      if (ok) ++v.correct;
      (large ? large_total : small_total) += 1;
      if (!ok) (large ? large_wrong : small_wrong) += 1;
    }
  }
  v.fp_small = small_total ? static_cast<double>(small_wrong) / small_total : 0.0;
  v.fp_large = large_total ? static_cast<double>(large_wrong) / large_total : 0.0;
  return v;
}

void print(const Context& ctx, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  std::vector<classify::ServerMetadata> metadata;
  metadata.reserve(report.servers.size());
  for (const auto& obs : report.servers) metadata.push_back(obs.metadata);

  // --- the full three-step pipeline ----------------------------------------
  const core::OrgClusterer full{ctx.model().dns_db(),
                                dns::PublicSuffixList::builtin()};
  const auto clustering = full.cluster(metadata);

  util::Table steps{"Clustering steps (share of clustered server IPs)"};
  steps.header({"step", "measured", "paper"});
  steps.row({"1: IP+content same authority",
             util::percent(clustering.step_share(1), 1), "78.7%"});
  steps.row({"2: majority vote", util::percent(clustering.step_share(2), 1),
             "17.4%"});
  steps.row({"3: partial SOA only", util::percent(clustering.step_share(3), 1),
             "3.9%"});
  steps.print(out);
  out << "organizations (clusters): " << clustering.cluster_count()
      << "  (paper: ~21K at full scale)\n"
      << "unclustered (no usable signal): " << clustering.step_counts[0]
      << "\n";

  const auto validation = validate(ctx, clustering);
  out << "\nvalidation against ground truth:\n";
  out << "  false-positive rate: " << util::percent(validation.fp_rate(), 2)
      << "  (paper: <3%)\n";
  out << "  FP, clusters <10 servers:  " << util::percent(validation.fp_small, 2)
      << "\n";
  out << "  FP, clusters >=10 servers: " << util::percent(validation.fp_large, 2)
      << "  (paper: FP rate decreases with footprint)\n";

  // --- ablation: step depth (DESIGN.md #2) -----------------------------------
  util::Table ablation{"\nAblation: clustering depth and vote key"};
  ablation.header({"variant", "clustered", "coverage", "FP rate"});
  const auto run_variant = [&](const char* label, core::ClusterOptions options) {
    const core::OrgClusterer clusterer{ctx.model().dns_db(),
                                       dns::PublicSuffixList::builtin(), options};
    const auto result = clusterer.cluster(metadata);
    const auto v = validate(ctx, result);
    ablation.row({label, util::with_thousands(result.clustered()),
                  util::percent(static_cast<double>(result.clustered()) /
                                static_cast<double>(metadata.size()), 1),
                  util::percent(v.fp_rate(), 2)});
  };
  run_variant("step 1 only", {core::VoteKey::kIpsAndFootprint, 1});
  run_variant("steps 1-2", {core::VoteKey::kIpsAndFootprint, 2});
  run_variant("steps 1-3 (full)", {core::VoteKey::kIpsAndFootprint, 3});
  run_variant("full, vote by IPs only", {core::VoteKey::kIpsOnly, 3});
  ablation.print(out);
}

}  // namespace

const Spec sec51_clustering{
    "sec51_clustering",
    "Section 5.1: clustering server IPs by organization (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
