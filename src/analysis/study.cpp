#include "analysis/study.hpp"

#include <vector>

#include "dns/public_suffix.hpp"

namespace ixp::analysis {

namespace {

std::unordered_map<net::Asn, net::Locality> classify_at_last_week(
    const gen::InternetModel& model) {
  std::vector<net::Asn> members;
  for (const auto* m : model.ixp().members_at(model.config().last_week))
    members.push_back(m->asn);
  return model.as_graph().classify(members);
}

}  // namespace

Study::Study(const gen::ScaleConfig& cfg)
    : model_(cfg), workload_(model_), locality_(classify_at_last_week(model_)) {}

core::VantagePoint Study::vantage() const {
  return core::VantagePoint{model_.ixp(),    model_.routing(),
                            model_.geo_db(), locality_,
                            model_.dns_db(), dns::PublicSuffixList::builtin(),
                            model_.root_store()};
}

classify::ChainFetcher Study::fetcher(int week) const {
  return [this, week](net::Ipv4Addr addr, int times) {
    return model_.fetch_chains(addr, times, week);
  };
}

}  // namespace ixp::analysis
