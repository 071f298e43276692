// HTTPS server identification via active certificate crawling (§2.2.2):
// the fetch primitive and the funnel it is counted in.
//
// Port-443 traffic alone is not proof of HTTPS ("TCP port 443 is commonly
// used to circumvent firewalls... e.g., SSH servers or VPNs"). The crawl
// (probe::HttpsSweep, run by VantagePoint::finish_week) fetches every
// candidate IP's X.509 chain several times and keeps only IPs whose
// chains pass all six checks of the ChainValidator, including
// cross-fetch stability.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "net/ipv4.hpp"
#include "x509/certificate.hpp"

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

}  // namespace ixp::classify
