// Batched §2.4 metadata harvest (DESIGN.md §15).
//
// The synchronous harvest (the test-only MetadataHarvester oracle) issues
// the PTR lookup, the iterative SOA walk and the reverse-SOA fallback
// inline, once per server. The pass
// re-expresses the DNS half as a two-exchange engine protocol (PTR, then
// authority) with every lookup served through a CachingResolver, and the
// local half (URI cleaning, certificate names) computed at completion with
// a per-chunk parse memo.
//
// The items are processed in fixed-size chunks, each with its own engine,
// resolver cache and memo; chunk results land at precomputed offsets and
// chunk stats merge in chunk order. Chunks are independent, so `threads`
// only changes wall-clock: the metadata vector and the merged shard are
// byte-identical for any thread count — the same WeekShard idiom the
// multi-week driver uses.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "classify/metadata.hpp"
#include "dns/public_suffix.hpp"
#include "dns/zone_db.hpp"
#include "net/ipv4.hpp"
#include "probe/caching_resolver.hpp"
#include "probe/engine.hpp"
#include "x509/certificate.hpp"

namespace ixp::probe {

/// One server to harvest: its sampled Host headers and, when the crawl
/// confirmed it, the validated certificate chain. Spans and pointer are
/// borrowed and must outlive the pass.
struct MetadataItem {
  net::Ipv4Addr addr;
  std::span<const std::string> hosts;
  const x509::CertificateChain* chain = nullptr;
};

/// Mergeable per-chunk accounting. Coverage fields sum (they are plain
/// counts), so the merged shard is independent of chunk/thread layout.
struct MetadataShard {
  classify::MetadataCoverage coverage;
  EngineStats engine;
  CacheStats cache;

  void merge(const MetadataShard& other) noexcept {
    coverage.servers += other.coverage.servers;
    coverage.with_dns += other.coverage.with_dns;
    coverage.with_uri += other.coverage.with_uri;
    coverage.with_cert += other.coverage.with_cert;
    coverage.with_any += other.coverage.with_any;
    coverage.cleaned_out += other.coverage.cleaned_out;
    engine.merge(other.engine);
    cache.merge(other.cache);
  }
};

struct MetadataPassResult {
  std::vector<classify::ServerMetadata> metadata;  // item order
  MetadataShard shard;
};

class MetadataPass {
 public:
  struct Options {
    std::size_t chunk = 8192;
    unsigned threads = 1;
    EngineConfig engine;
    NetModel net;
    CachingResolver::Options cache;
  };

  MetadataPass(const dns::ZoneDatabase& db, const dns::PublicSuffixList& psl)
      : MetadataPass(db, psl, Options{}) {}
  MetadataPass(const dns::ZoneDatabase& db, const dns::PublicSuffixList& psl,
               Options options)
      : db_(&db), psl_(&psl), options_(options) {}

  [[nodiscard]] MetadataPassResult run(
      std::span<const MetadataItem> items) const;

 private:
  MetadataShard run_chunk(std::span<const MetadataItem> items,
                          classify::ServerMetadata* out) const;

  const dns::ZoneDatabase* db_;
  const dns::PublicSuffixList* psl_;
  Options options_;
};

}  // namespace ixp::probe
