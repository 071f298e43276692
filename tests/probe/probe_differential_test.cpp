// Randomized differential suite (DESIGN.md §15): the engine-backed
// sweeps against the synchronous oracles they replaced, over randomized
// populations of dead/valid/invalid/squatting/unstable/vanishing targets
// and open/closed/delegating/lying resolvers.
//
// Lossless configurations must be byte-identical to the real synchronous
// code (usable_resolvers, HttpsProber::probe, a MetadataHarvester loop).
// Lossy configurations are compared against an oracle that replays the
// same pure NetModel draws — and must additionally be identical for every
// concurrency cap, chunk size, and thread count, which is the engine's
// determinism contract. The HTTPS sweep must also match at every chunking
// of its candidates, swept at once by one sweep per chunk, as
// VantagePoint::finish_week runs it.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "classify/dissector.hpp"
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
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "x509/certificate.hpp"
#include "x509/validator.hpp"

namespace ixp::probe {
namespace {

constexpr std::uint32_t kCandidates = 3'000;
constexpr std::uint32_t kResolvers = 600;
constexpr std::uint32_t kOrgs = 16;
constexpr std::uint32_t kBase = 0x0a000000u;
constexpr int kFetches = 3;

enum class Role : std::uint8_t {
  kDead,      // nothing listens
  kValid,     // stable, trusted chain
  kInvalid,   // stable, untrusted chain
  kSquatter,  // listens but serves no certificate
  kUnstable,  // flips its chain mid-sweep
  kVanisher,  // answers the liveness probe, then disappears
};

dns::DnsName name(const std::string& text) {
  return *dns::DnsName::parse(text);
}

x509::Certificate make_leaf(std::uint32_t org, bool trusted) {
  x509::Certificate leaf;
  const std::string domain = "org" + std::to_string(org) + ".diff-test.com";
  leaf.subject = name("www." + domain);
  leaf.alt_names.push_back(name(domain));
  leaf.key_usages = {x509::KeyUsage::kServerAuth};
  leaf.subject_key = (trusted ? "leaf-" : "rogue-") + std::to_string(org);
  leaf.issuer_key = trusted ? "root" : "nobody";
  leaf.not_before = 0;
  leaf.not_after = 1'000'000;
  return leaf;
}

/// One randomized population. Everything both sides consult — chains,
/// zones, Host headers, resolver behaviours — is a pure function of the
/// seed, so the sync oracle and the engine see the same world.
struct Fixture {
  x509::RootStore roots;
  dns::PublicSuffixList psl = dns::PublicSuffixList::builtin();
  dns::ZoneDatabase db;
  dns::DnsName probe_name = name("probe.diff-test.com");
  dns::ResolverPopulation pop;

  std::vector<net::Ipv4Addr> candidates;
  std::vector<Role> roles;
  std::vector<x509::CertificateChain> valid_chains;
  std::vector<x509::CertificateChain> rogue_chains;
  x509::CertificateChain squat_chain;
  std::vector<std::vector<std::string>> hosts;  // per candidate

  explicit Fixture(std::uint64_t seed) {
    util::Rng rng{seed};
    roots.trust("root");
    db.add_a(probe_name, net::Ipv4Addr{192, 0, 2, 1});

    for (std::uint32_t k = 0; k < kOrgs; ++k) {
      valid_chains.push_back(x509::CertificateChain{{make_leaf(k, true)}});
      rogue_chains.push_back(x509::CertificateChain{{make_leaf(k, false)}});
      const dns::DnsName zone =
          name("org" + std::to_string(k) + ".diff-test.com");
      db.add_soa(zone, name("ns." + zone.text()));
    }

    // Host-header pool with deliberately dirty entries: IP literals and
    // single labels must be cleaned out, duplicates deduplicated.
    std::vector<std::string> pool;
    for (int h = 0; h < 20; ++h)
      pool.push_back("site" + std::to_string(h) + ".diff-test.com");
    pool.push_back("192.168.0.1");
    pool.push_back("localhost");
    pool.push_back("internal.invalid-tld-zzz");

    candidates.reserve(kCandidates);
    roles.reserve(kCandidates);
    hosts.resize(kCandidates);
    for (std::uint32_t i = 0; i < kCandidates; ++i) {
      const net::Ipv4Addr addr{kBase + i};
      candidates.push_back(addr);
      const std::uint64_t r = rng.next_below(100);
      const Role role = r < 45   ? Role::kDead
                        : r < 65 ? Role::kValid
                        : r < 75 ? Role::kInvalid
                        : r < 85 ? Role::kSquatter
                        : r < 93 ? Role::kUnstable
                                 : Role::kVanisher;
      roles.push_back(role);

      // §2.4 DNS records, with awkward corners on purpose: PTR names
      // whose SOA walk finds nothing, reverse-SOA-only addresses, and
      // RIR authorities that the cleaning pass must drop.
      const std::uint32_t org = i % kOrgs;
      const std::uint64_t d = rng.next_below(10);
      if (d < 4) {
        db.add_ptr(addr, name("v" + std::to_string(i) + ".org" +
                              std::to_string(org) + ".diff-test.com"));
      } else if (d < 5) {
        db.add_ptr(addr, name("x" + std::to_string(i) + ".unzoned.test"));
      } else if (d < 7) {
        db.add_reverse_soa(
            addr, name("org" + std::to_string(org) + ".diff-test.com"));
      } else if (d == 7) {
        db.add_reverse_soa(addr, name("ripe.net"));
      }

      const std::uint64_t samples = rng.next_below(5);
      for (std::uint64_t s = 0; s < samples; ++s)
        hosts[i].push_back(pool[rng.next_below(pool.size())]);
    }

    for (std::uint32_t i = 0; i < kResolvers; ++i) {
      dns::Resolver r;
      r.address = net::Ipv4Addr{0x0b000000u + i};
      r.asn = net::Asn{1 + static_cast<std::uint32_t>(rng.next_below(40))};
      const std::uint64_t b = rng.next_below(100);
      r.behavior = b < 25   ? dns::ResolverBehavior::kOpen
                   : b < 70 ? dns::ResolverBehavior::kClosed
                   : b < 88 ? dns::ResolverBehavior::kDelegating
                            : dns::ResolverBehavior::kLying;
      pop.add(r);
    }
  }

  [[nodiscard]] const x509::CertificateChain* chain_for(net::Ipv4Addr addr,
                                                        int f) const {
    const std::uint32_t i = addr.value() - kBase;
    const std::uint32_t org = i % kOrgs;
    switch (roles[i]) {
      case Role::kDead: return nullptr;
      case Role::kValid: return &valid_chains[org];
      case Role::kInvalid: return &rogue_chains[org];
      case Role::kSquatter: return &squat_chain;
      case Role::kUnstable:
        return f == 0 ? &valid_chains[org] : &rogue_chains[org];
      case Role::kVanisher: return f == 0 ? &valid_chains[org] : nullptr;
    }
    return nullptr;
  }

  /// The legacy copying fetcher, shared by the sync prober and the
  /// engine's fetcher mode.
  [[nodiscard]] classify::ChainFetcher fetcher() const {
    return [this](net::Ipv4Addr addr,
                  int times) -> std::vector<x509::CertificateChain> {
      std::vector<x509::CertificateChain> fetched;
      for (int f = 0; f < times; ++f) {
        const x509::CertificateChain* chain = chain_for(addr, f);
        if (chain == nullptr) return {};
        fetched.push_back(*chain);
      }
      return fetched;
    };
  }

  /// The zero-copy source for HttpsSweep::run. All pointers alias
  /// fixture-owned, run-stable storage, as the ChainSource contract asks.
  [[nodiscard]] HttpsSweep::ChainSource source() const {
    return [this](net::Ipv4Addr addr, int f,
                  x509::CertificateChain&) -> const x509::CertificateChain* {
      return chain_for(addr, f);
    };
  }
};

/// Replays the wheel's per-attempt fate: an exchange gets a response iff
/// some attempt's draw is neither lost nor slower than its backoff slot.
bool responds(const NetModel& model, const EngineConfig& config,
              std::uint64_t key, std::uint32_t exchange) {
  for (std::uint32_t a = 0; a < config.max_attempts; ++a) {
    const NetModel::Draw draw = model.draw(key, exchange, a);
    if (!draw.lost &&
        draw.rtt_us < (std::uint64_t{config.timeout_us} << a))
      return true;
  }
  return false;
}

/// Draw-replaying oracle for the §2.3 filter.
std::vector<dns::Resolver> resolver_oracle(const Fixture& fx,
                                           const NetModel& model,
                                           const EngineConfig& config) {
  std::vector<dns::Resolver> usable;
  for (const dns::Resolver& r : fx.pop.all()) {
    if (r.behavior == dns::ResolverBehavior::kClosed) continue;
    if (!responds(model, config, r.address.value(), 0)) continue;
    const dns::ProbeResult probe =
        dns::ResolverPopulation::probe(r, fx.db, fx.probe_name);
    if (probe.answered && probe.answer_correct && !probe.delegated)
      usable.push_back(r);
  }
  return usable;
}

struct HttpsOracleResult {
  std::vector<net::Ipv4Addr> confirmed;
  classify::ProbeFunnel funnel;
};

/// Draw-replaying oracle for the source-mode sweep: one exchange per
/// fetch, aborting on the first dead or all-lost exchange.
HttpsOracleResult https_source_oracle(const Fixture& fx,
                                      const NetModel& model,
                                      const EngineConfig& config) {
  HttpsOracleResult result;
  result.funnel.candidates = fx.candidates.size();
  const x509::ChainValidator validator{fx.roots, fx.psl};
  std::vector<x509::Timestamp> times;
  for (int f = 0; f < kFetches; ++f)
    times.push_back(static_cast<x509::Timestamp>(100 + 50 * f));
  for (const net::Ipv4Addr addr : fx.candidates) {
    std::vector<const x509::CertificateChain*> got;
    bool aborted = false;
    for (int f = 0; f < kFetches; ++f) {
      const x509::CertificateChain* chain = fx.chain_for(addr, f);
      const bool answered =
          chain != nullptr &&
          responds(model, config, addr.value(), static_cast<std::uint32_t>(f));
      if (!answered) {
        if (f == 0) ++result.funnel.early_exits;
        aborted = true;
        break;
      }
      got.push_back(chain);
    }
    if (aborted) continue;
    ++result.funnel.responded;
    if (validator.validate_stable(got, times).ok) {
      ++result.funnel.confirmed;
      result.confirmed.push_back(addr);
    }
  }
  return result;
}

/// Draw-replaying oracle for the fetcher-mode sweep (liveness exchange,
/// then the full refetched sweep), mirroring HttpsProber::probe.
HttpsOracleResult https_fetcher_oracle(const Fixture& fx,
                                       const NetModel& model,
                                       const EngineConfig& config) {
  HttpsOracleResult result;
  result.funnel.candidates = fx.candidates.size();
  const x509::ChainValidator validator{fx.roots, fx.psl};
  const classify::ChainFetcher fetch = fx.fetcher();
  std::vector<x509::Timestamp> times;
  for (int f = 0; f < kFetches; ++f)
    times.push_back(static_cast<x509::Timestamp>(100 + 50 * f));
  for (const net::Ipv4Addr addr : fx.candidates) {
    if (fetch(addr, 1).empty() ||
        !responds(model, config, addr.value(), 0)) {
      ++result.funnel.early_exits;
      continue;
    }
    const std::vector<x509::CertificateChain> full = fetch(addr, kFetches);
    if (full.empty()) continue;  // vanished mid-probe: silently dropped
    if (!responds(model, config, addr.value(), 1)) continue;
    ++result.funnel.responded;
    if (validator.validate_stable(full, times).ok) {
      ++result.funnel.confirmed;
      result.confirmed.push_back(addr);
    }
  }
  return result;
}

void expect_funnels_equal(const classify::ProbeFunnel& got,
                          const classify::ProbeFunnel& want) {
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.responded, want.responded);
  EXPECT_EQ(got.confirmed, want.confirmed);
  EXPECT_EQ(got.early_exits, want.early_exits);
}

void expect_resolvers_equal(const std::vector<dns::Resolver>& got,
                            const std::vector<dns::Resolver>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].address, want[i].address) << "resolver " << i;
    EXPECT_EQ(got[i].asn, want[i].asn) << "resolver " << i;
    EXPECT_EQ(got[i].behavior, want[i].behavior) << "resolver " << i;
  }
}

void expect_metadata_equal(const classify::ServerMetadata& got,
                           const classify::ServerMetadata& want,
                           std::size_t item) {
  EXPECT_EQ(got.addr, want.addr) << "item " << item;
  EXPECT_EQ(got.hostname, want.hostname) << "item " << item;
  EXPECT_EQ(got.soa_authority, want.soa_authority) << "item " << item;
  EXPECT_EQ(got.uris, want.uris) << "item " << item;
  EXPECT_EQ(got.cert_names, want.cert_names) << "item " << item;
}

/// Items for the §2.4 pass: every live candidate, with the chain pointer
/// only for servers the crawl confirmed — like production, where the
/// pass runs over all server observations.
std::vector<MetadataItem> metadata_items(
    const Fixture& fx, const std::vector<net::Ipv4Addr>& confirmed) {
  std::vector<MetadataItem> items;
  std::size_t next_confirmed = 0;
  for (std::uint32_t i = 0; i < kCandidates; ++i) {
    if (fx.roles[i] == Role::kDead) continue;
    MetadataItem item;
    item.addr = fx.candidates[i];
    item.hosts = fx.hosts[i];
    if (next_confirmed < confirmed.size() &&
        confirmed[next_confirmed] == fx.candidates[i]) {
      item.chain = fx.chain_for(fx.candidates[i], 0);
      ++next_confirmed;
    }
    items.push_back(item);
  }
  return items;
}

/// Draw-replaying oracle for one metadata item: the local half always
/// happens (on_outcome), the PTR needs exchange 0, the authority needs
/// exchange 1 — and degrades to the exact-record fallback when the PTR
/// was lost.
classify::ServerMetadata metadata_oracle(const Fixture& fx,
                                         const NetModel& model,
                                         const EngineConfig& config,
                                         const MetadataItem& item) {
  const classify::MetadataHarvester harvester{fx.db, fx.psl};
  const classify::ServerMetadata full =
      harvester.harvest(item.addr, item.hosts, item.chain);
  classify::ServerMetadata expect;
  expect.addr = item.addr;
  expect.uris = full.uris;
  expect.cert_names = full.cert_names;
  if (responds(model, config, item.addr.value(), 0))
    expect.hostname = fx.db.reverse(item.addr);
  if (responds(model, config, item.addr.value(), 1)) {
    if (expect.hostname) {
      if (const auto soa = fx.db.soa_of(*expect.hostname))
        expect.soa_authority = soa->authority;
    }
    if (!expect.soa_authority) {
      if (const dns::DnsName* authority = fx.db.reverse_soa_at(item.addr))
        expect.soa_authority = *authority;
    }
    if (expect.soa_authority &&
        classify::is_rir_authority(*expect.soa_authority))
      expect.soa_authority.reset();
  }
  return expect;
}

/// The HTTPS sweep as finish_week runs it: the candidates cut into
/// `chunks` contiguous slices, each swept by an HttpsSweep of its own on
/// a few threads at once, then the funnels summed and the confirmed sets
/// and chains concatenated in slice order.
HttpsSweepResult sweep_in_chunks(const Fixture& fx, std::size_t chunks,
                                 const EngineConfig& config,
                                 const NetModel& model, bool via_fetcher) {
  const classify::ChainFetcher fetch = fx.fetcher();
  const HttpsSweep::ChainSource source = fx.source();
  const std::size_t n = fx.candidates.size();
  std::vector<HttpsSweepResult> parts(chunks);
  util::parallel_for(chunks, 3, [&](std::size_t c) {
    const std::span<const net::Ipv4Addr> slice{
        fx.candidates.data() + n * c / chunks, n * (c + 1) / chunks - n * c / chunks};
    HttpsSweep sweep{fx.roots, fx.psl, kFetches, config, model};
    parts[c] = via_fetcher ? sweep.run_with_fetcher(slice, fetch)
                           : sweep.run(slice, source);
  });
  HttpsSweepResult whole;
  for (HttpsSweepResult& part : parts) {
    whole.funnel += part.funnel;
    whole.engine.merge(part.engine);
    whole.confirmed.insert(whole.confirmed.end(), part.confirmed.begin(),
                           part.confirmed.end());
    for (x509::CertificateChain& chain : part.chains)
      whole.chains.push_back(std::move(chain));
  }
  return whole;
}

TEST(ProbeDifferentialTest, LosslessMatchesSynchronousCodeByteForByte) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fixture fx{seed};
    NetModel model;
    model.seed = seed * 977;

    // §2.3: the real synchronous filter is the oracle.
    const std::vector<dns::Resolver> sync_usable =
        fx.pop.usable_resolvers(fx.db, fx.probe_name);
    const ResolverSweepResult swept =
        ResolverSweep{EngineConfig{}, model}.run(fx.pop.all(), fx.db,
                                                 fx.probe_name);
    expect_resolvers_equal(swept.usable, sync_usable);
    EXPECT_TRUE(swept.engine.balanced());
    EXPECT_EQ(swept.engine.issued, kResolvers);

    // Exact cache accounting: one authoritative resolution of the probe
    // name; every other responding resolver hits.
    std::uint64_t queries = 0;
    for (const dns::Resolver& r : fx.pop.all()) {
      if (r.behavior == dns::ResolverBehavior::kOpen ||
          r.behavior == dns::ResolverBehavior::kDelegating)
        ++queries;
    }
    EXPECT_EQ(swept.cache.misses, 1u);
    EXPECT_EQ(swept.cache.hits, queries - 1);
    EXPECT_DOUBLE_EQ(swept.cache.hit_rate(),
                     static_cast<double>(queries - 1) /
                         static_cast<double>(queries));

    // §2.2.2: the real synchronous prober is the oracle for both modes.
    const classify::HttpsProber prober{fx.roots, fx.psl, kFetches};
    classify::ProbeFunnel sync_funnel;
    const std::vector<net::Ipv4Addr> sync_confirmed =
        prober.probe(fx.candidates, fx.fetcher(), sync_funnel);

    HttpsSweep source_sweep{fx.roots, fx.psl, kFetches, EngineConfig{},
                            model};
    const HttpsSweepResult via_source =
        source_sweep.run(fx.candidates, fx.source());
    EXPECT_EQ(via_source.confirmed, sync_confirmed);
    expect_funnels_equal(via_source.funnel, sync_funnel);
    EXPECT_TRUE(via_source.engine.balanced());

    HttpsSweep fetcher_sweep{fx.roots, fx.psl, kFetches, EngineConfig{},
                             model};
    const HttpsSweepResult via_fetcher =
        fetcher_sweep.run_with_fetcher(fx.candidates, fx.fetcher());
    EXPECT_EQ(via_fetcher.confirmed, sync_confirmed);
    expect_funnels_equal(via_fetcher.funnel, sync_funnel);

    // §2.4: a synchronous MetadataHarvester loop is the oracle; chunk
    // size and thread count must not leak into the output.
    const std::vector<MetadataItem> items = metadata_items(fx, sync_confirmed);
    const classify::MetadataHarvester harvester{fx.db, fx.psl};
    const std::pair<std::size_t, unsigned> layouts[] = {
        {64, 1}, {97, 3}, {100'000, 1}};
    for (const auto& [chunk, threads] : layouts) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + " threads " +
                   std::to_string(threads));
      MetadataPass::Options options;
      options.chunk = chunk;
      options.threads = threads;
      options.net = model;
      const MetadataPassResult result =
          MetadataPass{fx.db, fx.psl, options}.run(items);
      ASSERT_EQ(result.metadata.size(), items.size());
      EXPECT_TRUE(result.shard.engine.balanced());
      EXPECT_EQ(result.shard.engine.issued, items.size());
      EXPECT_EQ(result.shard.coverage.servers, items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        const classify::ServerMetadata want =
            harvester.harvest(items[i].addr, items[i].hosts, items[i].chain);
        expect_metadata_equal(result.metadata[i], want, i);
      }
    }
  }
}

TEST(ProbeDifferentialTest, EveryChunkingMatchesTheOracles) {
  // Sweeps over disjoint slices, run at once, add up to the oracles'
  // funnel and confirmed set, with and without loss; the fetcher mode's
  // chains are each confirmed server's single-fetch chain.
  for (const std::uint32_t loss : {0u, 200u}) {
    SCOPED_TRACE("loss " + std::to_string(loss));
    const Fixture fx{6};
    NetModel model;
    model.seed = 6 * 1299709;
    model.loss_permille = loss;
    const EngineConfig config;
    const HttpsOracleResult source_want = https_source_oracle(fx, model, config);
    const HttpsOracleResult fetcher_want = https_fetcher_oracle(fx, model, config);
    ASSERT_GT(fetcher_want.confirmed.size(), 0u);
    const classify::ChainFetcher fetch = fx.fetcher();

    for (const std::size_t chunks : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{7}, classify::kPartitions}) {
      SCOPED_TRACE("chunks " + std::to_string(chunks));
      const HttpsSweepResult via_source =
          sweep_in_chunks(fx, chunks, config, model, /*via_fetcher=*/false);
      EXPECT_EQ(via_source.confirmed, source_want.confirmed);
      expect_funnels_equal(via_source.funnel, source_want.funnel);
      EXPECT_TRUE(via_source.engine.balanced());
      EXPECT_EQ(via_source.engine.issued, kCandidates);

      const HttpsSweepResult via_fetcher =
          sweep_in_chunks(fx, chunks, config, model, /*via_fetcher=*/true);
      EXPECT_EQ(via_fetcher.confirmed, fetcher_want.confirmed);
      expect_funnels_equal(via_fetcher.funnel, fetcher_want.funnel);
      ASSERT_EQ(via_fetcher.chains.size(), via_fetcher.confirmed.size());
      for (std::size_t i = 0; i < via_fetcher.confirmed.size(); ++i)
        EXPECT_TRUE(via_fetcher.chains[i] == fetch(via_fetcher.confirmed[i], 1).front())
            << via_fetcher.confirmed[i].to_string();
    }
  }
}

TEST(ProbeDifferentialTest, LossyMatchesDrawOracleForAnyConcurrency) {
  for (const std::uint64_t seed : {4ull, 5ull}) {
    for (const std::uint32_t loss : {50u, 200u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " loss " +
                   std::to_string(loss));
      const Fixture fx{seed};
      NetModel model;
      model.seed = seed * 1299709;
      model.loss_permille = loss;
      const EngineConfig defaults;

      const std::vector<dns::Resolver> resolver_want =
          resolver_oracle(fx, model, defaults);
      const HttpsOracleResult source_want =
          https_source_oracle(fx, model, defaults);
      const HttpsOracleResult fetcher_want =
          https_fetcher_oracle(fx, model, defaults);

      for (const std::uint32_t cap : {1u, 64u, 4096u}) {
        SCOPED_TRACE("cap " + std::to_string(cap));
        EngineConfig config;
        config.max_in_flight = cap;

        const ResolverSweepResult swept =
            ResolverSweep{config, model}.run(fx.pop.all(), fx.db,
                                             fx.probe_name);
        expect_resolvers_equal(swept.usable, resolver_want);
        EXPECT_TRUE(swept.engine.balanced());

        HttpsSweep source_sweep{fx.roots, fx.psl, kFetches, config, model};
        const HttpsSweepResult via_source =
            source_sweep.run(fx.candidates, fx.source());
        EXPECT_EQ(via_source.confirmed, source_want.confirmed);
        expect_funnels_equal(via_source.funnel, source_want.funnel);
        EXPECT_TRUE(via_source.engine.balanced());

        HttpsSweep fetcher_sweep{fx.roots, fx.psl, kFetches, config, model};
        const HttpsSweepResult via_fetcher =
            fetcher_sweep.run_with_fetcher(fx.candidates, fx.fetcher());
        EXPECT_EQ(via_fetcher.confirmed, fetcher_want.confirmed);
        expect_funnels_equal(via_fetcher.funnel, fetcher_want.funnel);
      }

      // §2.4 under loss: same oracle for every chunk/thread layout.
      const std::vector<MetadataItem> items =
          metadata_items(fx, source_want.confirmed);
      const std::pair<std::size_t, unsigned> layouts[] = {
          {64, 1}, {97, 3}, {100'000, 1}};
      for (const auto& [chunk, threads] : layouts) {
        SCOPED_TRACE("chunk " + std::to_string(chunk) + " threads " +
                     std::to_string(threads));
        MetadataPass::Options options;
        options.chunk = chunk;
        options.threads = threads;
        options.net = model;
        const MetadataPassResult result =
            MetadataPass{fx.db, fx.psl, options}.run(items);
        ASSERT_EQ(result.metadata.size(), items.size());
        EXPECT_TRUE(result.shard.engine.balanced());
        for (std::size_t i = 0; i < items.size(); ++i) {
          expect_metadata_equal(
              result.metadata[i],
              metadata_oracle(fx, model, options.engine, items[i]), i);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ixp::probe
