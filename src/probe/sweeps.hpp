// Engine-backed measurement sweeps (DESIGN.md §15).
//
// The two per-candidate loops of the identification pipeline — resolver
// filtering (§2.3) and the HTTPS certificate crawl (§2.2.2) — re-expressed
// as ProbeEngine protocols. Lossless and loss-free configurations produce
// byte-identical results to the synchronous originals
// (ResolverPopulation::usable_resolvers, and the test-only HttpsProber
// oracle), which the differential suite asserts over randomized
// populations; under loss the synchronous oracles replay the same
// NetModel draws and must still agree.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "classify/https_prober.hpp"
#include "dns/resolver.hpp"
#include "probe/caching_resolver.hpp"
#include "probe/engine.hpp"
#include "x509/validator.hpp"

namespace ixp::probe {

struct ResolverSweepResult {
  std::vector<dns::Resolver> usable;  // candidate order, as the sync filter
  EngineStats engine;
  CacheStats cache;
};

/// §2.3 resolver filtering as a one-exchange protocol: closed resolvers
/// never answer (the engine's dead-target fast path handles the bulk of
/// the candidate set synchronously); responders are judged by the probe
/// semantics of ResolverPopulation::probe, with the known-answer lookup
/// served through a CachingResolver — one authoritative resolution warms
/// the cache for the remaining ~280K candidates.
class ResolverSweep {
 public:
  explicit ResolverSweep(EngineConfig config = {}, NetModel model = {})
      : config_(config), model_(model) {}

  [[nodiscard]] ResolverSweepResult run(
      std::span<const dns::Resolver> candidates, const dns::ZoneDatabase& db,
      const dns::DnsName& probe_name,
      CachingResolver::Options cache_options = {}) const;

 private:
  EngineConfig config_;
  NetModel model_;
};

struct HttpsSweepResult {
  std::vector<net::Ipv4Addr> confirmed;  // candidate order
  /// run_with_fetcher() only, parallel to `confirmed`: the first chain
  /// each confirmed server's full sweep fetched. A confirmed server is
  /// stable, so this is the chain `fetch(addr, 1)` returns too (see the
  /// ChainFetcher contract); run() leaves it empty.
  std::vector<x509::CertificateChain> chains;
  classify::ProbeFunnel funnel;
  EngineStats engine;
  std::uint64_t domain_cache_hits = 0;
  std::uint64_t domain_cache_misses = 0;
};

/// §2.2.2 certificate crawl as an engine protocol, in two flavours:
///
///  - run(): one exchange per fetch against a zero-copy ChainSource (e.g.
///    gen::InternetModel::fetch_chain_view). An exchange-0 timeout is the
///    liveness early-exit; stability is judged on the chain pointers, so
///    stable servers are validated without ever copying a chain.
///  - run_with_fetcher(): the legacy two-exchange protocol over a
///    ChainFetcher (liveness fetch, then the full sweep, refetched from
///    scratch) — funnel- and set-identical to the synchronous crawl (the
///    test-only HttpsProber::probe), which is what let VantagePoint swap
///    it in without disturbing snapshots.
///
/// A DomainCache is attached for the duration of each run, so checks
/// (a)/(b) hit the PSL once per distinct name instead of once per fetch.
/// That makes a sweep single-threaded: sweeps that run at once take one
/// HttpsSweep each. Without a run deadline, each candidate is judged on
/// its own fetches and draws, so sweeps over disjoint slices of a
/// candidate list give the funnel (summed), the confirmed set and the
/// chains (concatenated) of one sweep over the whole list; only the
/// domain-cache hit counts depend on the split.
class HttpsSweep {
 public:
  /// Payload field budget: exchange indices must fit the timer encoding.
  static constexpr int kMaxFetches = 8;

  /// Zero-copy fetch: returns the chain served by `addr` on this fetch,
  /// nullptr when nothing listens. Unstable servers materialize into
  /// `scratch` (valid until the item completes); any other pointer must
  /// alias storage that is stable — same address, same contents — for the
  /// whole run, which is what lets the sweep memoize validation verdicts
  /// per fetched pointer tuple.
  using ChainSource = std::function<const x509::CertificateChain*(
      net::Ipv4Addr addr, int fetch_index, x509::CertificateChain& scratch)>;

  HttpsSweep(const x509::RootStore& roots, const dns::PublicSuffixList& psl,
             int fetches_per_ip = 3, EngineConfig config = {},
             NetModel model = {})
      : validator_(roots, psl),
        fetches_(fetches_per_ip < 1 ? 1
                 : fetches_per_ip > kMaxFetches ? kMaxFetches
                                                : fetches_per_ip),
        config_(config),
        model_(model) {}

  [[nodiscard]] HttpsSweepResult run(std::span<const net::Ipv4Addr> candidates,
                                     const ChainSource& source);

  [[nodiscard]] HttpsSweepResult run_with_fetcher(
      std::span<const net::Ipv4Addr> candidates,
      const classify::ChainFetcher& fetch);

 private:
  x509::ChainValidator validator_;
  int fetches_;
  EngineConfig config_;
  NetModel model_;
};

}  // namespace ixp::probe
