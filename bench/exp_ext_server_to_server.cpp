// Extension — the paper's closing prediction, §7:
//
//   "As an interesting consequence of more servers being deployed close
//    to the end users, we also expect that IXPs in the future will 'see'
//    less end user-to-server traffic but an increasing amount of
//    server-to-server traffic."
//
// This experiment measures exactly that quantity on the synthetic
// substrate, week by week: of the server-related peering bytes, how much
// runs between two identified server IPs (machine-to-machine: CDN fill,
// origin fetch, backend sync) vs. server-to-client. §2.2.2 already pegs
// the dual-role slice at ~10% of server traffic in 2012; the trend line
// is what a future-facing operator would watch.
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

class ExtServerToServer final : public Experiment {
 public:
  explicit ExtServerToServer(const Context& ctx) : Experiment(ctx) {
    table_.header({"week", "server-to-server", "user-to-server",
                   "s2s share of peering"});
  }

  void observe(const WeekInput& in) override {
    // The byte sums are exact, so the user-to-server bytes are the
    // difference.
    const analysis::AttributionPass& pass = *in.servers;
    const double s2s_bytes = pass.server_to_server_bytes();
    const double server_total = pass.server_bytes();
    const double u2s_bytes = server_total - s2s_bytes;
    const double peering_bytes = pass.peering_bytes();
    table_.row(
        {std::to_string(in.week),
         util::percent(server_total > 0 ? s2s_bytes / server_total : 0, 2),
         util::percent(server_total > 0 ? u2s_bytes / server_total : 0, 2),
         util::percent(peering_bytes > 0 ? s2s_bytes / peering_bytes : 0, 2)});
    out << "week " << in.week << " done\n";
  }

  void finish() override {
    table_.print(out);
    out << "\npaper, §2.2.2 (2012 baseline): machine-to-machine traffic of"
           " dual-role IPs is ~10% of server traffic.\n"
           "paper, §7 (prediction): the server-to-server share will grow"
           " as server deployments move closer to users.\n";
  }

 private:
  util::Table table_{"Weekly composition of server-related peering bytes"};
};

}  // namespace

const Spec ext_server_to_server{
    .id = "ext_server_to_server",
    .title = "Extension (§7): server-to-server vs user-to-server traffic trend",
    .weeks = Weeks::kAll,
    .make = make<ExtServerToServer>,
    .server_pass = true};

}  // namespace ixp::expcommon
