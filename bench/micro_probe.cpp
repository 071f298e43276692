// Probe-engine benchmark: the §2.2.2/§2.3/§2.4 measurement sweeps at the
// paper's population scale (445K /24 prefixes, ~1.5M HTTPS candidates,
// 280K resolver candidates), A/B'd against the synchronous per-candidate
// oracles they replaced (usable_resolvers, and HttpsProber::probe and a
// MetadataHarvester loop from tests/support). Both sides run over the
// same fixture and the binary *aborts* unless the outputs are
// byte-identical — confirmed set, funnel, usable resolver list, and every
// harvested metadata field — so the speedup numbers in the JSON
// trajectory are only ever recorded for equivalent work:
//
//   build/bench/micro_probe --json BENCH_probe.json
//
// The synthetic TLS mix matches the funnel shape the paper reports: ~1M
// dead addresses, 100K valid-stable servers, 150K invalid chains, 125K
// certificate-less squatters, 125K unstable responders. Chains are shared
// per organization (2K orgs), which is exactly what makes the engine's
// zero-copy ChainSource and the validator's aliased fast path pay off.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "classify/https_prober.hpp"
#include "classify/metadata.hpp"
#include "dns/name.hpp"
#include "dns/public_suffix.hpp"
#include "dns/resolver.hpp"
#include "dns/zone_db.hpp"
#include "net/ipv4.hpp"
#include "probe/metadata_pass.hpp"
#include "probe/sweeps.hpp"
#include "support/probe_oracles.hpp"
#include "x509/certificate.hpp"

namespace {

using namespace ixp;

constexpr std::uint32_t kPrefixes = 445'000;    // /24s with candidates
constexpr std::uint32_t kCandidates = 1'500'000;
constexpr std::uint32_t kResolvers = 280'000;
constexpr std::uint32_t kOrgs = 2'000;          // distinct cert chains
constexpr std::uint32_t kHostPool = 512;        // distinct Host headers
constexpr std::uint32_t kBase = 0x10000000u;    // candidate address base
constexpr int kFetches = 3;

// Candidate i lives at host (1 + i / kPrefixes) of prefix (i % kPrefixes),
// so the population really spans 445K /24s and the index — hence the TLS
// role — is recoverable from the address arithmetic both fetchers share.
net::Ipv4Addr addr_of_index(std::uint32_t i) {
  const std::uint32_t prefix = i % kPrefixes;
  const std::uint32_t host = 1 + i / kPrefixes;
  return net::Ipv4Addr{kBase + prefix * 256 + host};
}

std::uint32_t index_of_addr(net::Ipv4Addr addr) {
  const std::uint32_t off = addr.value() - kBase;
  return ((off & 0xffu) - 1) * kPrefixes + (off >> 8);
}

enum class Role : std::uint8_t { kDead, kValid, kInvalid, kSquatter, kUnstable };

Role role_of_index(std::uint32_t i) {
  const std::uint32_t r = i % 60;
  if (r < 4) return Role::kValid;      // 100K valid + stable
  if (r < 10) return Role::kInvalid;   // 150K untrusted chains
  if (r < 15) return Role::kSquatter;  // 125K listeners without X.509
  if (r < 20) return Role::kUnstable;  // 125K flip their chain mid-sweep
  return Role::kDead;                  // 1M nothing listens
}

x509::Certificate make_leaf(std::uint32_t org, bool trusted) {
  x509::Certificate leaf;
  const std::string domain = "org" + std::to_string(org) + ".probe-bench.com";
  leaf.subject = *dns::DnsName::parse("www." + domain);
  leaf.alt_names.push_back(*dns::DnsName::parse(domain));
  // Real server certs carry several SANs; the synchronous path pays for
  // each of them on every copy and every per-fetch validation.
  for (int s = 0; s < 4; ++s)
    leaf.alt_names.push_back(
        *dns::DnsName::parse("alt" + std::to_string(s) + "." + domain));
  leaf.key_usages = {x509::KeyUsage::kServerAuth};
  leaf.subject_key = (trusted ? "leaf-" : "rogue-") + std::to_string(org);
  leaf.issuer_key = trusted ? "root" : "nobody";
  leaf.not_before = 0;
  leaf.not_after = 1'000'000;
  return leaf;
}

struct Fixture {
  x509::RootStore roots;
  dns::PublicSuffixList psl = dns::PublicSuffixList::builtin();
  dns::ZoneDatabase db;
  dns::DnsName probe_name = *dns::DnsName::parse("probe.bench-zone.com");
  dns::ResolverPopulation resolvers;

  std::vector<net::Ipv4Addr> candidates;              // index order
  std::vector<x509::CertificateChain> valid_chains;   // one per org
  std::vector<x509::CertificateChain> rogue_chains;   // one per org
  x509::CertificateChain squat_chain;                 // listens, no X.509
  std::vector<std::string> host_pool;

  Fixture() {
    roots.trust("root");
    db.add_a(probe_name, net::Ipv4Addr{192, 0, 2, 1});

    valid_chains.reserve(kOrgs);
    rogue_chains.reserve(kOrgs);
    for (std::uint32_t k = 0; k < kOrgs; ++k) {
      valid_chains.push_back(x509::CertificateChain{{make_leaf(k, true)}});
      rogue_chains.push_back(x509::CertificateChain{{make_leaf(k, false)}});
      // One SOA per hoster zone: the authority §2.4 walks up to.
      const dns::DnsName zone =
          *dns::DnsName::parse("org" + std::to_string(k) + ".probe-bench.com");
      db.add_soa(zone, zone);
    }

    host_pool.reserve(kHostPool);
    for (std::uint32_t h = 0; h < kHostPool; ++h)
      host_pool.push_back("site" + std::to_string(h) + ".probe-bench.com");

    candidates.reserve(kCandidates);
    for (std::uint32_t i = 0; i < kCandidates; ++i) {
      const net::Ipv4Addr addr = addr_of_index(i);
      candidates.push_back(addr);
      if (role_of_index(i) != Role::kValid) continue;
      // §2.4 DNS fixture, confirmed servers only: half carry a PTR whose
      // SOA walk lands on the org zone; a quarter only get the
      // per-address reverse SOA ("present even when there is no
      // hostname record").
      const std::uint32_t org = i % kOrgs;
      if (i % 2 == 0) {
        db.add_ptr(addr, *dns::DnsName::parse(
                             "v" + std::to_string(i) + ".dc" +
                             std::to_string(i % 3) + ".org" +
                             std::to_string(org) + ".probe-bench.com"));
      } else if (i % 4 == 1) {
        db.add_reverse_soa(addr, *dns::DnsName::parse(
                                     "org" + std::to_string(org) +
                                     ".probe-bench.com"));
      }
    }

    // §2.3 candidate resolvers: ~9% open (the paper keeps ~25K of 280K),
    // the rest closed, delegating, or lying.
    for (std::uint32_t i = 0; i < kResolvers; ++i) {
      dns::Resolver r;
      r.address = net::Ipv4Addr{0x30000000u + i};
      r.asn = net::Asn{1 + i % 12'000};
      const std::uint32_t b = i % 100;
      r.behavior = b < 9    ? dns::ResolverBehavior::kOpen
                   : b < 75 ? dns::ResolverBehavior::kClosed
                   : b < 90 ? dns::ResolverBehavior::kDelegating
                            : dns::ResolverBehavior::kLying;
      resolvers.add(r);
    }
  }

  // What `addr` serves on fetch `f`; nullptr when dead. Both sides of the
  // A/B answer from this one function, so they see the same network.
  [[nodiscard]] const x509::CertificateChain* chain_for(net::Ipv4Addr addr,
                                                        int f) const {
    const std::uint32_t i = index_of_addr(addr);
    const std::uint32_t org = i % kOrgs;
    switch (role_of_index(i)) {
      case Role::kDead: return nullptr;
      case Role::kValid: return &valid_chains[org];
      case Role::kInvalid: return &rogue_chains[org];
      case Role::kSquatter: return &squat_chain;
      case Role::kUnstable:
        return f == 0 ? &valid_chains[org] : &rogue_chains[org];
    }
    return nullptr;
  }
};

[[noreturn]] void mismatch(const char* what) {
  std::fprintf(stderr, "micro_probe: engine/sync divergence: %s\n", what);
  std::exit(1);
}

void check(bool ok, const char* what) {
  if (!ok) mismatch(what);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"probe", args};
  const Fixture fx;

  // ---- §2.3 resolver filtering ----------------------------------------
  std::vector<dns::Resolver> sync_usable;
  suite.run_case("resolver_sync", 2, [&](std::uint64_t iters, int) {
    for (std::uint64_t it = 0; it < iters; ++it)
      sync_usable = fx.resolvers.usable_resolvers(fx.db, fx.probe_name);
    return iters * kResolvers;
  });

  probe::ResolverSweepResult rsweep;
  suite.run_case("resolver_engine", 2, [&](std::uint64_t iters, int) {
    const probe::ResolverSweep sweep;
    for (std::uint64_t it = 0; it < iters; ++it)
      rsweep = sweep.run(fx.resolvers.all(), fx.db, fx.probe_name);
    return iters * kResolvers;
  });

  check(rsweep.engine.balanced(), "resolver engine accounting imbalanced");
  check(rsweep.usable.size() == sync_usable.size(), "usable resolver count");
  for (std::size_t i = 0; i < sync_usable.size(); ++i)
    check(rsweep.usable[i].address == sync_usable[i].address &&
              rsweep.usable[i].asn == sync_usable[i].asn &&
              rsweep.usable[i].behavior == sync_usable[i].behavior,
          "usable resolver entry");

  // ---- §2.2.2 certificate crawl ---------------------------------------
  // Sync oracle: the per-candidate loop with a copying ChainFetcher —
  // exactly the shape the engine path replaced.
  std::vector<net::Ipv4Addr> sync_confirmed;
  classify::ProbeFunnel sync_funnel;
  suite.run_case("https_sync", 2, [&](std::uint64_t iters, int) {
    const classify::HttpsProber prober{fx.roots, fx.psl, kFetches};
    const auto fetcher = [&](net::Ipv4Addr addr, int times) {
      std::vector<x509::CertificateChain> out;
      if (fx.chain_for(addr, 0) == nullptr) return out;
      out.reserve(static_cast<std::size_t>(times));
      for (int f = 0; f < times; ++f) out.push_back(*fx.chain_for(addr, f));
      return out;
    };
    for (std::uint64_t it = 0; it < iters; ++it) {
      sync_funnel = {};
      sync_confirmed = prober.probe(fx.candidates, fetcher, sync_funnel);
    }
    return iters * kCandidates;
  });

  probe::HttpsSweepResult hsweep;
  suite.run_case("https_engine", 2, [&](std::uint64_t iters, int) {
    probe::HttpsSweep sweep{fx.roots, fx.psl, kFetches};
    const auto source = [&](net::Ipv4Addr addr, int f,
                            x509::CertificateChain&) {
      return fx.chain_for(addr, f);
    };
    for (std::uint64_t it = 0; it < iters; ++it)
      hsweep = sweep.run(fx.candidates, source);
    return iters * kCandidates;
  });

  check(hsweep.engine.balanced(), "https engine accounting imbalanced");
  check(hsweep.confirmed == sync_confirmed, "confirmed set");
  check(hsweep.funnel.candidates == sync_funnel.candidates &&
            hsweep.funnel.responded == sync_funnel.responded &&
            hsweep.funnel.confirmed == sync_funnel.confirmed &&
            hsweep.funnel.early_exits == sync_funnel.early_exits,
        "probe funnel");

  // ---- §2.4 metadata harvest ------------------------------------------
  // Items borrow spans/pointers, so the host storage is laid out first
  // (two sampled Host headers per confirmed server, from a shared pool).
  // A dozen sampled Host headers per server, two distinct values: payload
  // samples repeat the popular headers heavily, which is exactly what the
  // pass's parse memo exploits and the sync harvester re-parses.
  constexpr std::size_t kHostsPerServer = 12;
  std::vector<std::string> host_storage;
  host_storage.reserve(sync_confirmed.size() * kHostsPerServer);
  std::vector<probe::MetadataItem> items;
  items.reserve(sync_confirmed.size());
  for (const net::Ipv4Addr addr : sync_confirmed) {
    const std::uint32_t i = index_of_addr(addr);
    for (std::size_t h = 0; h < kHostsPerServer; ++h)
      host_storage.push_back(fx.host_pool[(i * 7 + h % 2) % kHostPool]);
    items.push_back(probe::MetadataItem{
        addr,
        std::span<const std::string>{
            &host_storage[host_storage.size() - kHostsPerServer],
            kHostsPerServer},
        &fx.valid_chains[i % kOrgs]});
  }

  std::vector<classify::ServerMetadata> sync_md;
  suite.run_case("metadata_sync", 2, [&](std::uint64_t iters, int) {
    const classify::MetadataHarvester harvester{fx.db, fx.psl};
    for (std::uint64_t it = 0; it < iters; ++it) {
      sync_md.clear();
      sync_md.reserve(items.size());
      for (const probe::MetadataItem& item : items)
        sync_md.push_back(harvester.harvest(item.addr, item.hosts, item.chain));
    }
    return iters * items.size();
  });

  probe::MetadataPassResult mpass;
  suite.run_case("metadata_engine", 2, [&](std::uint64_t iters, int threads) {
    probe::MetadataPass::Options options;
    options.threads = threads < 1 ? 1u : static_cast<unsigned>(threads);
    const probe::MetadataPass pass{fx.db, fx.psl, options};
    for (std::uint64_t it = 0; it < iters; ++it) mpass = pass.run(items);
    return iters * items.size();
  });

  check(mpass.shard.engine.balanced(), "metadata engine accounting imbalanced");
  check(mpass.metadata.size() == sync_md.size(), "metadata count");
  for (std::size_t i = 0; i < sync_md.size(); ++i) {
    const classify::ServerMetadata& a = mpass.metadata[i];
    const classify::ServerMetadata& b = sync_md[i];
    check(a.addr == b.addr && a.hostname == b.hostname &&
              a.soa_authority == b.soa_authority && a.uris == b.uris &&
              a.cert_names == b.cert_names,
          "metadata entry");
  }

  // ---- end-to-end aggregate -------------------------------------------
  // The pipeline runs the three stages back to back, so end-to-end cost
  // is their sum; recording both sums in the trajectory is what the
  // >= 5x claim and the bench_diff gate are checked against.
  const auto stage = [&](const std::string& name) -> const bench::BenchResult& {
    for (const bench::BenchResult& r : suite.results())
      if (r.name == name) return r;
    std::fprintf(stderr, "micro_probe: missing case %s\n", name.c_str());
    std::exit(1);
  };
  const auto total = [&](const char* a, const char* b, const char* c,
                         std::string name) {
    bench::BenchResult sum;
    sum.name = std::move(name);
    sum.iters = stage(a).iters;
    sum.threads = args.threads;
    sum.items = stage(a).items + stage(b).items + stage(c).items;
    sum.seconds = stage(a).seconds + stage(b).seconds + stage(c).seconds;
    sum.allocs = stage(a).allocs + stage(b).allocs + stage(c).allocs;
    suite.add(sum);
    return sum;
  };
  const bench::BenchResult sync_total = total(
      "resolver_sync", "https_sync", "metadata_sync", "end_to_end_sync");
  const bench::BenchResult engine_total = total(
      "resolver_engine", "https_engine", "metadata_engine", "end_to_end_engine");
  if (engine_total.seconds > 0.0)
    std::printf("end_to_end speedup: %.2fx (sync %.3fs / engine %.3fs)\n",
                sync_total.seconds / engine_total.seconds, sync_total.seconds,
                engine_total.seconds);

  std::printf(
      "outputs byte-identical: %zu usable resolvers, %zu confirmed, "
      "%zu harvested (resolver cache %.1f%%, metadata cache %.1f%%)\n",
      sync_usable.size(), sync_confirmed.size(), sync_md.size(),
      100.0 * rsweep.cache.hit_rate(), 100.0 * mpass.shard.cache.hit_rate());
  return 0;
}
