#include "support/probe_oracles.hpp"

#include <algorithm>

#include "dns/uri.hpp"

namespace ixp::classify {

namespace {

/// The full stability sweep for one responder. `fetched` holds
/// `fetches_per_ip` chains; timestamps spread across the probing window
/// ("we perform the active measurements several times and check for
/// changes").
bool sweep_confirms(const x509::ChainValidator& validator,
                    std::span<const x509::CertificateChain> fetched) {
  std::vector<x509::Timestamp> times;
  times.reserve(fetched.size());
  for (std::size_t i = 0; i < fetched.size(); ++i)
    times.push_back(static_cast<x509::Timestamp>(100 + 50 * i));
  return validator.validate_stable(fetched, times).ok;
}

}  // namespace

bool HttpsProber::probe_one(net::Ipv4Addr addr,
                            const ChainFetcher& fetch) const {
  // Liveness short-circuit: one cheap fetch decides whether anything
  // listens before the full stability sweep is paid. ~2/3 of candidate
  // IPs are dead, so this saves fetches_per_ip - 1 fetches on most of
  // the population.
  std::vector<x509::CertificateChain> fetched = fetch(addr, 1);
  if (fetched.empty()) return false;
  if (fetches_ > 1) {
    // Full sweep, refetched from scratch: verdicts must not depend on
    // whether the liveness probe ran (flaky fetchers may answer
    // differently per call).
    fetched = fetch(addr, fetches_);
    if (fetched.empty()) return false;
  }
  return sweep_confirms(validator_, fetched);
}

std::vector<net::Ipv4Addr> HttpsProber::probe(
    std::span<const net::Ipv4Addr> candidates, const ChainFetcher& fetch,
    ProbeFunnel& funnel) const {
  std::vector<net::Ipv4Addr> confirmed;
  funnel.candidates += candidates.size();
  for (const net::Ipv4Addr addr : candidates) {
    std::vector<x509::CertificateChain> fetched = fetch(addr, 1);
    if (fetched.empty()) {
      // Nothing listened: early exit before the stability sweep.
      ++funnel.early_exits;
      continue;
    }
    if (fetches_ > 1) {
      fetched = fetch(addr, fetches_);
      if (fetched.empty()) continue;  // vanished mid-probe: not a responder
    }
    ++funnel.responded;
    if (sweep_confirms(validator_, fetched)) {
      ++funnel.confirmed;
      confirmed.push_back(addr);
    }
  }
  return confirmed;
}

ServerMetadata MetadataHarvester::harvest(
    net::Ipv4Addr addr, std::span<const std::string> hosts,
    const x509::CertificateChain* chain) const {
  ServerMetadata md;
  md.addr = addr;

  // DNS: hostname via reverse lookup, authority via iterative SOA (or the
  // reverse SOA when no hostname exists).
  md.hostname = db_->reverse(addr);
  if (md.hostname) {
    if (const auto soa = db_->soa_of(*md.hostname))
      md.soa_authority = soa->authority;
  }
  if (!md.soa_authority) {
    if (const auto authority = db_->reverse_soa(addr))
      md.soa_authority = authority;
  }
  // Cleaning: RIR authorities carry no organizational information.
  if (md.soa_authority && is_rir_authority(*md.soa_authority))
    md.soa_authority.reset();

  // URIs: parse and validate each observed Host header; keep only hosts
  // with a proper registrable domain (drops IP literals, single labels,
  // unknown TLDs).
  for (const std::string& host : hosts) {
    const auto uri = dns::Uri::parse(host);
    if (!uri) continue;
    if (!uri->authority(*psl_)) continue;
    if (std::find(md.uris.begin(), md.uris.end(), *uri) == md.uris.end())
      md.uris.push_back(*uri);
  }

  // Certificates: names covered by the validated chain's leaf.
  if (chain != nullptr && !chain->empty())
    md.cert_names = chain->leaf().covered_names();

  return md;
}

}  // namespace ixp::classify
