#include "probe/metadata_pass.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "dns/uri.hpp"
#include "util/flat_hash_map.hpp"
#include "util/parallel_for.hpp"

namespace ixp::probe {

namespace {

/// Host-header parse memo: Uri::parse + authority validation are pure in
/// the host string, and hosting farms repeat a handful of headers across
/// the pool. nullopt = invalid (unparseable or no registrable domain).
using UriMemo = util::FlatHashMap<std::string, std::optional<dns::Uri>>;

const std::optional<dns::Uri>& cleaned_uri(UriMemo& memo,
                                           const std::string& host,
                                           const dns::PublicSuffixList& psl) {
  const auto [it, inserted] = memo.try_emplace(host);
  if (inserted) {
    auto uri = dns::Uri::parse(host);
    if (uri && uri->authority(psl)) it->second = std::move(*uri);
  }
  return it->second;
}

class MetadataHandler final : public ProbeHandler {
 public:
  MetadataHandler(std::span<const MetadataItem> items,
                  CachingResolver& resolver, const dns::PublicSuffixList& psl,
                  classify::ServerMetadata* out)
      : items_(items), resolver_(resolver), psl_(psl), out_(out) {}

  [[nodiscard]] std::uint64_t item_key(std::uint32_t item) const override {
    return items_[item].addr.value();
  }

  bool exchange_answers(std::uint32_t, std::uint32_t) override {
    // The authoritative servers always answer (NXDOMAIN is an answer);
    // only network loss can time a metadata query out.
    return true;
  }

  Step on_response(std::uint32_t item, std::uint32_t exchange,
                   std::uint64_t now_us) override {
    classify::ServerMetadata& md = out_[item];
    const dns::ZoneDatabase& db = resolver_.db();
    if (exchange == 0) {
      // PTR and reverse-SOA queries are keyed by the address, and every
      // address appears once per pass — caching them is write-only churn,
      // so they go straight to the authoritative source. Only the SOA
      // walk repeats (sibling names share zones) and rides the cache.
      md.hostname = db.reverse(items_[item].addr);
      return Step::kNextExchange;
    }
    if (md.hostname) {
      if (const auto soa = resolver_.soa_of(*md.hostname, now_us))
        md.soa_authority = soa->authority;
    }
    if (!md.soa_authority) {
      // ZoneDatabase::reverse_soa = the per-address authority, else the
      // SOA walk of the PTR hostname. The walk half was just computed
      // (and came up empty) whenever a hostname exists, so only the
      // exact record can still contribute.
      if (const dns::DnsName* authority = db.reverse_soa_at(items_[item].addr))
        md.soa_authority = *authority;
    }
    if (md.soa_authority && classify::is_rir_authority(*md.soa_authority))
      md.soa_authority.reset();
    return Step::kDone;
  }

  Step on_timeout(std::uint32_t, std::uint32_t exchange,
                  std::uint64_t) override {
    // Degrade instead of aborting: a lost PTR still leaves the SOA
    // fallback worth trying; a lost authority query leaves the local
    // metadata (URIs, certificate names) intact.
    return exchange == 0 ? Step::kNextExchange : Step::kDone;
  }

  void on_outcome(std::uint32_t item, Outcome, std::uint64_t) override {
    // The local half of the harvest, computed for every outcome.
    const MetadataItem& in = items_[item];
    classify::ServerMetadata& md = out_[item];
    md.addr = in.addr;
    for (const std::string& host : in.hosts) {
      const auto& uri = cleaned_uri(memo_, host, psl_);
      if (!uri) continue;
      if (std::find(md.uris.begin(), md.uris.end(), *uri) == md.uris.end())
        md.uris.push_back(*uri);
    }
    if (in.chain != nullptr && !in.chain->empty())
      md.cert_names = in.chain->leaf().covered_names();
  }

 private:
  std::span<const MetadataItem> items_;
  CachingResolver& resolver_;
  const dns::PublicSuffixList& psl_;
  classify::ServerMetadata* out_;
  UriMemo memo_;
};

}  // namespace

MetadataShard MetadataPass::run_chunk(std::span<const MetadataItem> items,
                                      classify::ServerMetadata* out) const {
  MetadataShard shard;
  CachingResolver resolver(*db_, options_.cache);
  MetadataHandler handler(items, resolver, *psl_, out);
  ProbeEngine engine(options_.engine, options_.net);
  shard.engine = engine.run(static_cast<std::uint32_t>(items.size()), handler);
  shard.cache = resolver.stats();
  for (std::size_t i = 0; i < items.size(); ++i) shard.coverage.add(out[i]);
  return shard;
}

MetadataPassResult MetadataPass::run(
    std::span<const MetadataItem> items) const {
  MetadataPassResult result;
  result.metadata.resize(items.size());
  if (items.empty()) return result;

  const std::size_t chunk = std::max<std::size_t>(1, options_.chunk);
  const std::size_t chunk_count = (items.size() + chunk - 1) / chunk;
  std::vector<MetadataShard> shards(chunk_count);

  const auto run_one = [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t size = std::min(chunk, items.size() - begin);
    shards[c] =
        run_chunk(items.subspan(begin, size), result.metadata.data() + begin);
  };

  util::parallel_for(chunk_count, options_.threads, run_one);

  for (const MetadataShard& shard : shards) result.shard.merge(shard);
  return result;
}

}  // namespace ixp::probe
