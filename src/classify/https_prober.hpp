// HTTPS server identification via active certificate crawling (§2.2.2).
//
// Port-443 traffic alone is not proof of HTTPS ("TCP port 443 is commonly
// used to circumvent firewalls... e.g., SSH servers or VPNs"). The prober
// crawls every candidate IP for an X.509 chain several times and keeps
// only IPs whose chains pass all six checks of the ChainValidator,
// including cross-fetch stability.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "x509/validator.hpp"

namespace ixp::classify {

/// Active measurement primitive: fetch up to `times` certificate chains
/// from an IP. An empty vector means nothing listened; an entry with an
/// empty chain means something answered without X.509 material.
///
/// Contract:
///  - Concurrency. VantagePoint::finish_week sweeps disjoint address
///    ranges on its analysis threads, so one fetcher object is called
///    from several threads at once (never twice for one address at once).
///    A fetcher must be safe for that: a pure function of its arguments
///    and of state that does not change during the call, or guarded by
///    its own lock or atomics.
///  - Determinism. The f-th chain a call returns does not depend on
///    `times`, or on which thread asks. A confirmed (stable) server's
///    first chain from the sweep is therefore the chain `fetch(addr, 1)`
///    returns, which is the one the metadata harvest reads.
using ChainFetcher = std::function<std::vector<x509::CertificateChain>(
    net::Ipv4Addr addr, int times)>;

/// The paper's identification funnel: ~1.5M candidates -> ~500K respond
/// -> ~250K pass all checks (week 45). `early_exits` counts candidates
/// dismissed by the cheap liveness fetch before the full stability sweep
/// (the ~1M dead candidates dominate the crawl, so this is the population
/// the short-circuit saves fetches on).
struct ProbeFunnel {
  std::size_t candidates = 0;
  std::size_t responded = 0;
  std::size_t confirmed = 0;
  std::size_t early_exits = 0;

  /// Funnels of disjoint candidate sets add up field by field.
  ProbeFunnel& operator+=(const ProbeFunnel& o) noexcept {
    candidates += o.candidates;
    responded += o.responded;
    confirmed += o.confirmed;
    early_exits += o.early_exits;
    return *this;
  }
};

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

}  // namespace ixp::classify
