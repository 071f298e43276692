// Table 3 — the IXP as local yet global player (week 45).
//
// Breakdown of IPs, prefixes, ASes and traffic over the paper's three
// AS-distance classes: A(L) = members, A(M) = distance 1, A(G) = the
// rest. Paper values:
//   peering: IPs 42.3/45.0/12.7, prefixes 10.1/34.1/55.8,
//            ASes 1.0/48.9/50.1, traffic 67.3/28.4/4.3
//   server:  IPs 52.9/41.2/5.9,  prefixes 17.2/61.9/20.9,
//            ASes 2.2/61.5/36.3, traffic 82.6/17.35/0.05
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& /*ctx*/, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  const auto print_block = [&](const char* title,
                               const core::LocalityTally (&tally)[3],
                               const char* paper_ips, const char* paper_prefixes,
                               const char* paper_ases, const char* paper_traffic) {
    double ips = 0;
    double prefixes = 0;
    double ases = 0;
    double bytes = 0;
    for (const auto& t : tally) {
      ips += static_cast<double>(t.ips);
      prefixes += static_cast<double>(t.prefixes);
      ases += static_cast<double>(t.ases);
      bytes += t.bytes;
    }
    util::Table table{title};
    table.header({"row", "A(L)", "A(M)", "A(G)", "paper (L/M/G)"});
    const auto row = [&](const char* label, auto get, double total,
                         const char* paper) {
      table.row({label, util::percent(get(tally[0]) / total, 1),
                 util::percent(get(tally[1]) / total, 1),
                 util::percent(get(tally[2]) / total, 1), paper});
    };
    row("IPs", [](const core::LocalityTally& t) { return static_cast<double>(t.ips); },
        ips, paper_ips);
    row("prefixes",
        [](const core::LocalityTally& t) { return static_cast<double>(t.prefixes); },
        prefixes, paper_prefixes);
    row("ASes",
        [](const core::LocalityTally& t) { return static_cast<double>(t.ases); },
        ases, paper_ases);
    row("traffic", [](const core::LocalityTally& t) { return t.bytes; }, bytes,
        paper_traffic);
    table.print(out);
    out << "\n";
  };

  print_block("Peering traffic", report.peering_locality,
              "42.3 / 45.0 / 12.7", "10.1 / 34.1 / 55.8", "1.0 / 48.9 / 50.1",
              "67.3 / 28.4 / 4.3");
  print_block("Server traffic", report.server_locality,
              "52.9 / 41.2 / 5.9", "17.2 / 61.9 / 20.9", "2.2 / 61.5 / 36.3",
              "82.6 / 17.35 / 0.05");
}

}  // namespace

const Spec tab3_local_global{
    "tab3_local_global",
    "Table 3: A(L)/A(M)/A(G) breakdown (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
