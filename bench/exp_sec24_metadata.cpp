// §2.4 — server meta-data coverage (week 45).
//
// Paper: DNS information for 71.7% of the 1.5M server IPs, at least one
// URI for 23.8%, X.509 certificate information for 17.7%; at least one of
// the three for 81.9%. Cleaning (invalid URIs, RIR SOAs) costs <3%.
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& /*ctx*/, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;
  const auto& mc = report.metadata_coverage;
  const double n = static_cast<double>(mc.servers);

  util::Table table{"Meta-data coverage over identified server IPs"};
  table.header({"source", "measured", "paper"});
  table.row({"DNS (hostname and/or SOA)", util::percent(mc.with_dns / n, 1),
             "71.7%"});
  table.row({"URIs (from payloads)", util::percent(mc.with_uri / n, 1),
             "23.8%"});
  table.row({"X.509 certificates", util::percent(mc.with_cert / n, 1),
             "17.7%"});
  table.row({"at least one of the three", util::percent(mc.with_any / n, 1),
             "81.9%"});
  table.print(out);

  out << "\nservers whose metadata vanished in cleaning: "
      << report.metadata_cleaned_out << " ("
      << util::percent(static_cast<double>(report.metadata_cleaned_out) / n, 2)
      << ")  (paper: cleaning reduces the pool by <3%)\n";

  // Coverage detail: how many metadata pieces per server.
  std::size_t pieces[4] = {0, 0, 0, 0};
  for (const auto& obs : report.servers) {
    const int count = (obs.metadata.has_dns() ? 1 : 0) +
                      (obs.metadata.has_uri() ? 1 : 0) +
                      (obs.metadata.has_cert() ? 1 : 0);
    pieces[count] += 1;
  }
  util::Table detail{"\nMeta-data pieces per server"};
  detail.header({"pieces", "servers", "share"});
  for (int p = 0; p < 4; ++p) {
    detail.row({std::to_string(p), util::with_thousands(pieces[p]),
                util::percent(pieces[p] / n, 1)});
  }
  detail.print(out);
}

}  // namespace

const Spec sec24_metadata{
    "sec24_metadata",
    "Section 2.4: server meta-data coverage (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
