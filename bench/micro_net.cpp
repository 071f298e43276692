// Micro-benchmarks: longest-prefix-match structures (DESIGN.md ablation
// #4 — DIR-24-8 flat table vs. pooled binary trie vs. the
// length-indexed hash-table LPM).
//
// The headline A/B runs on a synthetic table of 445K prefixes — the
// paper-era RouteViews table size — with a realistic length mix
// including a /25–/32 tail that exercises the flat table's spill
// blocks. Results land in BENCH_net.json:
//
//   build/bench/micro_net --json BENCH_net.json
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "net/flat_lpm.hpp"
#include "net/routing_table.hpp"
#include "support/prefix_trie.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

/// The paper-era RouteViews table size (§2: "445K prefixes").
constexpr std::size_t kFullTable = 445'000;

std::vector<net::Ipv4Prefix> make_prefixes(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<net::Ipv4Prefix> prefixes;
  prefixes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto length = static_cast<std::uint8_t>(rng.next_in(12, 24));
    prefixes.emplace_back(net::Ipv4Addr{static_cast<std::uint32_t>(rng())},
                          length);
  }
  return prefixes;
}

/// Routing-table-shaped length mix: dominated by /16–/24, a thin head of
/// short prefixes, and a /25–/32 tail that lands in spill blocks.
std::vector<net::Ipv4Prefix> make_routing_prefixes(std::size_t n,
                                                   std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<net::Ipv4Prefix> prefixes;
  prefixes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double bucket = rng.next_double();
    std::uint8_t length;
    if (bucket < 0.02)
      length = static_cast<std::uint8_t>(rng.next_in(8, 11));
    else if (bucket < 0.95)
      length = static_cast<std::uint8_t>(rng.next_in(12, 24));
    else
      length = static_cast<std::uint8_t>(rng.next_in(25, 32));
    prefixes.emplace_back(net::Ipv4Addr{static_cast<std::uint32_t>(rng())},
                          length);
  }
  return prefixes;
}

void bench_trie_insert(bench::Suite& suite, std::size_t n,
                       std::uint64_t default_iters) {
  const auto prefixes = make_prefixes(n, 1);
  suite.run_case("trie_insert/" + std::to_string(n), default_iters,
                 [&](std::uint64_t iters, int) {
                   for (std::uint64_t it = 0; it < iters; ++it) {
                     net::PrefixTrie<std::uint32_t> trie;
                     for (std::size_t i = 0; i < prefixes.size(); ++i)
                       trie.insert(prefixes[i], static_cast<std::uint32_t>(i));
                     bench::keep(trie.size());
                   }
                   return iters * prefixes.size();
                 });
}

void bench_trie_lookup(bench::Suite& suite, std::size_t n,
                       std::uint64_t default_iters) {
  const auto prefixes = make_prefixes(n, 1);
  net::PrefixTrie<std::uint32_t> trie;
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    trie.insert(prefixes[i], static_cast<std::uint32_t>(i));
  util::Rng rng{2};
  suite.run_case("trie_lookup/" + std::to_string(n), default_iters,
                 [&](std::uint64_t iters, int) {
                   for (std::uint64_t it = 0; it < iters; ++it)
                     bench::keep(trie.lookup_ptr(
                         net::Ipv4Addr{static_cast<std::uint32_t>(rng())}));
                   return iters;
                 });
}

void bench_lpm_lookup(bench::Suite& suite, std::size_t n,
                      std::uint64_t default_iters) {
  const auto prefixes = make_prefixes(n, 1);
  net::LengthIndexedLpm<std::uint32_t> lpm;
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    lpm.insert(prefixes[i], static_cast<std::uint32_t>(i));
  util::Rng rng{2};
  suite.run_case("length_indexed_lookup/" + std::to_string(n), default_iters,
                 [&](std::uint64_t iters, int) {
                   for (std::uint64_t it = 0; it < iters; ++it)
                     bench::keep(lpm.lookup(
                         net::Ipv4Addr{static_cast<std::uint32_t>(rng())}));
                   return iters;
                 });
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"net", args};

  bench_trie_insert(suite, 1000, 500);
  bench_trie_insert(suite, 10000, 50);
  bench_trie_insert(suite, 100000, 5);
  bench_trie_lookup(suite, 1000, 2'000'000);
  bench_trie_lookup(suite, 100000, 2'000'000);
  bench_trie_lookup(suite, 400000, 2'000'000);
  bench_lpm_lookup(suite, 1000, 2'000'000);
  bench_lpm_lookup(suite, 100000, 2'000'000);
  bench_lpm_lookup(suite, 400000, 2'000'000);

  // ---- the flat-vs-trie A/B on the full-size table ----------------------
  const auto full = make_routing_prefixes(kFullTable, 5);

  suite.run_case("flat_lpm_build/445000", 3, [&](std::uint64_t iters, int) {
    for (std::uint64_t it = 0; it < iters; ++it) {
      net::FlatLpm<std::uint32_t> flat;
      flat.reserve(full.size());
      for (std::size_t i = 0; i < full.size(); ++i)
        flat.insert(full[i], static_cast<std::uint32_t>(i));
      bench::keep(flat.size());
    }
    return iters * full.size();
  });

  net::PrefixTrie<std::uint32_t> trie;
  net::FlatLpm<std::uint32_t> flat;
  for (std::size_t i = 0; i < full.size(); ++i) {
    trie.insert(full[i], static_cast<std::uint32_t>(i));
    flat.insert(full[i], static_cast<std::uint32_t>(i));
  }

  {
    util::Rng rng{6};
    suite.run_case("trie_lookup/445000", 2'000'000,
                   [&](std::uint64_t iters, int) {
                     for (std::uint64_t it = 0; it < iters; ++it)
                       bench::keep(trie.lookup_ptr(
                           net::Ipv4Addr{static_cast<std::uint32_t>(rng())}));
                     return iters;
                   });
  }
  {
    util::Rng rng{6};
    suite.run_case("flat_lpm_lookup/445000", 2'000'000,
                   [&](std::uint64_t iters, int) {
                     for (std::uint64_t it = 0; it < iters; ++it)
                       bench::keep(flat.lookup_ptr(
                           net::Ipv4Addr{static_cast<std::uint32_t>(rng())}));
                     return iters;
                   });
  }

  // Batched form: the attribution loop's shape — one array of addresses
  // in, one array of payload pointers out, spill blocks prefetched.
  {
    constexpr std::size_t kBatch = 4096;
    util::Rng rng{7};
    std::vector<net::Ipv4Addr> addrs;
    addrs.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
      addrs.emplace_back(static_cast<std::uint32_t>(rng()));
    std::vector<const std::uint32_t*> out(kBatch);
    suite.run_case("flat_lpm_lookup_batch/445000", 2000,
                   [&](std::uint64_t iters, int) {
                     for (std::uint64_t it = 0; it < iters; ++it) {
                       flat.lookup_batch(addrs, out);
                       bench::keep(out[kBatch - 1]);
                     }
                     return iters * kBatch;
                   });
  }

  // Cold batched form: 64 distinct 4096-address batches cycled in turn —
  // 262K uniform addresses against 32K cache slots, so nearly every probe
  // misses and the chunked table walk (prefetched top loads + spill
  // pipeline) plus the per-miss cache refill carry the cost. This is the
  // adversarial upper bound; sampled traffic is zipf-skewed and tracks
  // the hot case above.
  {
    constexpr std::size_t kBatch = 4096;
    constexpr std::size_t kBatchSets = 64;
    util::Rng rng{9};
    std::vector<std::vector<net::Ipv4Addr>> sets(kBatchSets);
    for (auto& set : sets) {
      set.reserve(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i)
        set.emplace_back(static_cast<std::uint32_t>(rng()));
    }
    std::vector<const std::uint32_t*> out(kBatch);
    suite.run_case("flat_lpm_lookup_batch_cold/445000", 2000,
                   [&](std::uint64_t iters, int) {
                     for (std::uint64_t it = 0; it < iters; ++it) {
                       flat.lookup_batch(sets[it % kBatchSets], out);
                       bench::keep(out[kBatch - 1]);
                     }
                     return iters * kBatch;
                   });
  }

  // The production wrapper (FlatLpm<Route> behind the lookup API).
  {
    net::RoutingTable table;
    for (std::size_t i = 0; i < full.size(); ++i)
      table.announce(full[i], net::Asn{static_cast<std::uint32_t>(i)});
    util::Rng rng{8};
    suite.run_case("routing_table_route_ptr", 2'000'000,
                   [&](std::uint64_t iters, int) {
                     for (std::uint64_t it = 0; it < iters; ++it)
                       bench::keep(table.route_ptr(
                           net::Ipv4Addr{static_cast<std::uint32_t>(rng())}));
                     return iters;
                   });
  }

  const auto& results = suite.results();
  double trie_ns = 0.0;
  double flat_ns = 0.0;
  double batch_ns = 0.0;
  double build_allocs = 0.0;
  for (const auto& result : results) {
    if (result.name == "trie_lookup/445000") trie_ns = result.ns_per_item();
    if (result.name == "flat_lpm_lookup/445000") flat_ns = result.ns_per_item();
    if (result.name == "flat_lpm_lookup_batch/445000")
      batch_ns = result.ns_per_item();
    if (result.name == "flat_lpm_build/445000")
      build_allocs = result.allocs_per_item();
  }
  if (flat_ns > 0.0 && batch_ns > 0.0)
    std::printf(
        "445K-prefix lookup: flat vs trie %.2fx, batched vs trie %.2fx\n",
        trie_ns / flat_ns, trie_ns / batch_ns);
  // Guard the build-allocation fix: with reserve() and the flat exact-
  // match index, a 445K-prefix build performs a few dozen allocations
  // total (~0.0001/item). The node-per-insert regression this replaced
  // sat at ~0.77/item, so any drift past 0.01 is a structural relapse.
  if (build_allocs > 0.01) {
    std::fprintf(stderr,
                 "FAIL: flat_lpm_build/445000 at %.4f allocs/item "
                 "(expected < 0.01; node-per-insert regression?)\n",
                 build_allocs);
    return 1;
  }
  return 0;
}
