// Test oracles: the synchronous HTTPS crawl (§2.2.2) and metadata
// harvest (§2.4), one loop each, kept out of the shipped libraries. The
// engine-backed sweeps in probe/sweeps.hpp and probe::MetadataPass
// replaced them in VantagePoint::finish_week; tests/probe/
// probe_differential_test.cpp holds those to these loops, and
// bench/micro_probe times them as its baselines.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "classify/https_prober.hpp"
#include "classify/metadata.hpp"
#include "dns/public_suffix.hpp"
#include "dns/zone_db.hpp"
#include "net/ipv4.hpp"
#include "x509/validator.hpp"

namespace ixp::classify {

/// Crawls every candidate IP for an X.509 chain several times and keeps
/// only IPs whose chains pass all six checks of the ChainValidator,
/// including cross-fetch stability. Port-443 traffic alone is not proof
/// of HTTPS ("TCP port 443 is commonly used to circumvent firewalls...
/// e.g., SSH servers or VPNs").
class HttpsProber {
 public:
  HttpsProber(const x509::RootStore& roots, const dns::PublicSuffixList& psl,
              int fetches_per_ip = 3)
      : validator_(roots, psl), fetches_(fetches_per_ip) {}

  /// Probes every candidate; returns the confirmed HTTPS server IPs.
  [[nodiscard]] std::vector<net::Ipv4Addr> probe(
      std::span<const net::Ipv4Addr> candidates, const ChainFetcher& fetch,
      ProbeFunnel& funnel) const;

  /// Single-IP variant; returns true when confirmed.
  [[nodiscard]] bool probe_one(net::Ipv4Addr addr,
                               const ChainFetcher& fetch) const;

  /// Attaches a registrable-domain memo shared across the probe run (see
  /// x509::DomainCache). Non-owning.
  void set_domain_cache(x509::DomainCache* cache) noexcept {
    validator_.set_domain_cache(cache);
  }

 private:
  x509::ChainValidator validator_;
  int fetches_;
};

/// Gathers one server's DNS names, cleaned Host-header URIs and
/// certificate names, and drops the RIRs' SOA authorities.
class MetadataHarvester {
 public:
  MetadataHarvester(const dns::ZoneDatabase& db, const dns::PublicSuffixList& psl)
      : db_(&db), psl_(&psl) {}

  /// Harvests and cleans one server's metadata. `hosts` are the raw Host
  /// header strings from the dissector; `chain` the validated certificate
  /// chain (nullptr when the IP is not a confirmed HTTPS server).
  [[nodiscard]] ServerMetadata harvest(
      net::Ipv4Addr addr, std::span<const std::string> hosts,
      const x509::CertificateChain* chain) const;

 private:
  const dns::ZoneDatabase* db_;
  const dns::PublicSuffixList* psl_;
};

}  // namespace ixp::classify
