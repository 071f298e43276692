// exp_paper — every table and figure of the paper from one model and one
// pass per week.
//
//   exp_paper [--json PATH] [--iters N] [--threads N] [ID...]
//
// Each ID names one experiment, bench/exp_<ID>.cpp; no ID runs them all.
// It builds one analysis::Study and analyses each week that a
// selected experiment reads exactly once: weeks 35-51 if one reads them
// all, otherwise week 45 alone. --threads sets the engine's worker count
// (the report is identical for any count), --iters repeats each week's
// analysis, --json records per-week timing as a bench-v1 document. Where
// an experiment reads a second pass over a week's samples, the week is
// generated once more, and every such pass reads that one generation.
// Each experiment prints into its own buffer, and the sections come out
// in ID order: banner, scale and model lines, body.
#include <algorithm>
#include <iostream>
#include <optional>

#include "exp_common.hpp"

namespace {

using namespace ixp;
using expcommon::Spec;
using expcommon::Weeks;

const Spec* const kExperiments[] = {
    &expcommon::calibration_sampling, &expcommon::ext_server_to_server,
    &expcommon::fig1_filtering,       &expcommon::fig2_server_share,
    &expcommon::fig3_geography,       &expcommon::fig4_churn,
    &expcommon::fig5_traffic_churn,   &expcommon::fig6_heterogeneity,
    &expcommon::fig7_links,           &expcommon::sec22_dissection,
    &expcommon::sec24_metadata,       &expcommon::sec31_crossval,
    &expcommon::sec33_blindspots,     &expcommon::sec42_cases,
    &expcommon::sec51_clustering,     &expcommon::tab1_summary,
    &expcommon::tab2_top10,           &expcommon::tab3_local_global,
};

bool reads(const Spec& spec, int week) {
  return spec.weeks == Weeks::kAll ||
         (spec.weeks == Weeks::kWeek45 && week == 45);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kOperands = "[ID...]";
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, kOperands);
  std::vector<const Spec*> specs;  // the selection, in ID order
  std::string known;
  for (const Spec* spec : kExperiments) {
    const auto& ids = args.operands;
    if (ids.empty() || std::find(ids.begin(), ids.end(), spec->id) != ids.end())
      specs.push_back(spec);
    (known += ' ') += spec->id;
  }
  for (const std::string& id : args.operands) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const Spec* spec) { return spec->id == id; }))
      bench::usage_error(argv[0], "unknown experiment '" + id + "'; known:" + known,
                         kOperands);
  }
  bool reads_weeks = false;
  bool reads_all = false;
  for (const Spec* spec : specs) {
    reads_weeks |= spec->weeks != Weeks::kNone;
    reads_all |= spec->weeks == Weeks::kAll;
  }

  expcommon::Context ctx{std::move(args), reads_weeks};
  std::vector<std::unique_ptr<expcommon::Experiment>> experiments;
  for (const Spec* spec : specs) experiments.push_back(spec->make(ctx));

  const int first = reads_all ? ctx.cfg.first_week : 45;
  const int last = reads_all ? ctx.cfg.last_week : 45;
  for (int week = first; reads_weeks && week <= last; ++week) {
    const core::WeeklyReport report = ctx.run_week(week);
    std::vector<expcommon::Experiment*> readers;
    bool server_pass = false;
    bool server_churn = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!reads(*specs[i], week)) continue;
      readers.push_back(experiments[i].get());
      server_pass |= specs[i]->server_pass;
      server_churn |= specs[i]->server_churn;
    }

    if (server_churn) {
      for (const auto& obs : report.servers)
        ctx.server_churn.observe(obs.addr.value(), week,
                                 geo::region_of(obs.country), obs.bytes);
    }

    // The second generation, read by every pass that asks for one.
    std::optional<analysis::AttributionPass> servers;
    std::vector<analysis::AttributionPass*> passes;
    if (server_pass) {
      std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org;
      for (const auto& obs : report.servers) server_org.emplace(obs.addr, 0u);
      passes.push_back(&servers.emplace(ctx.model().ixp(), week,
                                        std::move(server_org),
                                        std::unordered_map<std::uint32_t, net::Asn>{}));
    }
    for (expcommon::Experiment* reader : readers) {
      for (analysis::AttributionPass* pass : reader->passes(week))
        passes.push_back(pass);
    }
    if (!passes.empty()) {
      (void)ctx.workload().generate_week(week, [&](const sflow::FlowSample& s) {
        for (analysis::AttributionPass* pass : passes) pass->observe(s);
      });
    }

    const expcommon::WeekInput in{week, report, servers ? &*servers : nullptr};
    for (expcommon::Experiment* reader : readers) reader->observe(in);
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    experiments[i]->finish();
    util::print_banner(std::cout, std::string{specs[i]->title});
    if (specs[i]->weeks != Weeks::kNone) std::cout << ctx.header;
    std::cout << experiments[i]->out.str();
  }
  return 0;
}
