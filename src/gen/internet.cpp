#include "gen/internet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/background_task.hpp"
#include "util/flat_hash_map.hpp"

namespace ixp::gen {

namespace {

/// Reserved /8s we never allocate from.
bool reserved_slash8(std::uint32_t top_octet) {
  return top_octet == 0 || top_octet == 10 || top_octet == 127 ||
         top_octet == 169 || top_octet == 172 || top_octet == 192 ||
         top_octet >= 224;
}

geo::CountryCode cc(const char* code) { return *geo::CountryCode::parse(code); }

/// Prefixes in `prefixes`, each counted once: what a table of them holds.
/// Address allocation wraps around once the unreserved space runs out,
/// so a prefix can be allocated twice. Sizing a table by the distinct
/// count keeps its exact-match index at the capacity it would have grown
/// to, not the next power of two.
std::size_t distinct_prefix_count(const std::vector<PrefixRecord>& prefixes) {
  util::FlatHashMap<net::Ipv4Prefix, bool> seen;
  seen.reserve(prefixes.size());
  std::size_t distinct = 0;
  for (const PrefixRecord& p : prefixes)
    distinct += seen.try_emplace(p.prefix, true).second ? 1 : 0;
  return distinct;
}

}  // namespace

InternetModel::InternetModel(const ScaleConfig& cfg) : cfg_(cfg) {
  if (cfg_.as_count < cfg_.member_count + 10)
    throw std::invalid_argument{"InternetModel: as_count too small for members"};
  if (cfg_.prefix_count < cfg_.as_count)
    throw std::invalid_argument{"InternetModel: need >= 1 prefix per AS"};
  util::Rng rng{cfg_.seed};
  build_ases_and_prefixes(rng);

  // The routing table is filled on a helper thread while the remaining
  // phases run here. The fill draws no random numbers, no later phase
  // reads the table, and prefixes_ and each AS's asn/country are not
  // written again, so they are read in place. It announces the prefixes
  // in prefixes() order, as a serial fill would: every route index,
  // route_index and routes() is the same. The geo table needs no fill of
  // its own: it holds the same prefixes in the same order, so it is
  // built over the routing table's index with one country per route
  // index, the last assignment winning as a re-assign() would. The pools
  // are reserved here, so the helper allocates nothing; it is joined
  // before the constructor returns or throws.
  const std::size_t distinct = distinct_prefix_count(prefixes_);
  routing_.reserve(distinct);
  std::vector<geo::CountryCode> countries;
  countries.reserve(distinct);
  util::BackgroundTask fill{[this, &countries] {
    for (const PrefixRecord& p : prefixes_) {
      const AsRecord& as = ases_[p.as_index];
      const std::size_t route = routing_.announce(p.prefix, as.asn);
      if (route == countries.size()) {
        countries.push_back(as.country);
      } else {
        countries[route] = as.country;
      }
    }
  }};
  build_topology(rng);
  build_orgs_and_servers(rng);
  build_dns_and_certs(rng);
  build_sites(rng);
  build_resolvers(rng);
  fill.join();
  geo_ = geo::GeoDatabase{routing_, std::move(countries)};
}

// ---------------------------------------------------------------------------
// ASes, prefixes, geolocation, routing
// ---------------------------------------------------------------------------

void InternetModel::build_ases_and_prefixes(util::Rng& rng) {
  const auto& registry = geo::CountryRegistry::instance();
  std::vector<double> country_weights;
  country_weights.reserve(registry.size());
  for (const auto& entry : registry.entries())
    country_weights.push_back(entry.weight);
  const util::WeightedSampler world_countries{country_weights};

  // European-biased sampler for member ASes: the IXP's locale.
  std::vector<double> euro_weights = country_weights;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto code = registry.entries()[i].code;
    const auto region = geo::region_of(code);
    const bool europe =
        region == geo::Region::kDE ||
        code == cc("NL") || code == cc("FR") || code == cc("GB") ||
        code == cc("AT") || code == cc("CH") || code == cc("CZ") ||
        code == cc("PL") || code == cc("IT") || code == cc("ES") ||
        code == cc("SE") || code == cc("DK") || code == cc("BE");
    euro_weights[i] *= europe ? 8.0 : (region == geo::Region::kUS ? 1.0 : 0.4);
  }
  const util::WeightedSampler euro_countries{euro_weights};

  const auto pick_country = [&](bool european_bias) {
    const std::size_t index = european_bias ? euro_countries.sample(rng)
                                            : world_countries.sample(rng);
    return registry.entries()[index].code;
  };

  std::uint32_t next_asn = 100;
  const auto fresh_asn = [&] {
    // Skip ASNs reserved for catalog entities.
    while (used_asns_.count(next_asn) > 0) ++next_asn;
    used_asns_.insert(next_asn);
    return net::Asn{next_asn++};
  };

  // --- members -------------------------------------------------------------
  const auto add_as = [&](net::Asn asn, AsRole role, geo::CountryCode country,
                          bool member, int join_week) {
    AsRecord rec;
    rec.asn = asn;
    rec.role = role;
    rec.country = country;
    rec.member = member;
    rec.join_week = join_week;
    rec.entry_member = static_cast<std::uint32_t>(ases_.size());
    ases_.push_back(std::move(rec));
    used_asns_.insert(asn.value());
    asn_index_.emplace(asn, static_cast<std::uint32_t>(ases_.size() - 1));
    return static_cast<std::uint32_t>(ases_.size() - 1);
  };

  // Named org home ASes (members of the IXP).
  for (const OrgSpec& spec : named_org_specs()) {
    if (!spec.home_as || used_asns_.count(spec.home_as->value())) continue;
    AsRole role = AsRole::kContent;
    switch (spec.kind) {
      case OrgKind::kCdn: role = AsRole::kCdn; break;
      case OrgKind::kHoster: role = AsRole::kHoster; break;
      case OrgKind::kCloud: role = AsRole::kCloud; break;
      case OrgKind::kEyeballOps: role = AsRole::kEyeball; break;
      default: role = AsRole::kContent; break;
    }
    add_as(*spec.home_as, role, spec.home_country, spec.home_as_is_member, 0);
  }
  // Named eyeballs.
  for (const EyeballSpec& spec : named_eyeball_specs()) {
    if (used_asns_.count(spec.asn.value())) continue;
    add_as(spec.asn, AsRole::kEyeball, spec.country, spec.member, 0);
  }
  // The reseller member (§4.2).
  reseller_as_ = add_as(net::Asn{51088}, AsRole::kReseller, cc("DE"), true, 0);

  // Synthetic members up to member_count + the weekly joiners.
  const std::size_t named_members = std::count_if(
      ases_.begin(), ases_.end(), [](const AsRecord& a) { return a.member; });
  const std::size_t total_members = cfg_.member_count + cfg_.member_joins;
  std::size_t tier1_budget = 12;
  for (std::size_t i = named_members; i < total_members; ++i) {
    AsRole role;
    const double r = rng.next_double();
    if (tier1_budget > 0 && r < 0.03) {
      role = AsRole::kTier1;
      --tier1_budget;
    } else if (r < 0.18) {
      role = AsRole::kTransit;
    } else if (r < 0.62) {
      role = AsRole::kEyeball;
    } else if (r < 0.76) {
      role = AsRole::kHoster;
    } else if (r < 0.88) {
      role = AsRole::kContent;
    } else {
      role = AsRole::kEnterprise;
    }
    // Joiners (the last member_joins) are regional/far players joining
    // weeks 36..51, 1-2 per week.
    const bool joiner = i >= total_members - cfg_.member_joins;
    const int join_week =
        joiner ? cfg_.first_week + 1 +
                     static_cast<int>((i - (total_members - cfg_.member_joins)) *
                                      (cfg_.week_count() - 1) /
                                      std::max<std::size_t>(1, cfg_.member_joins))
               : 0;
    add_as(fresh_asn(), role, pick_country(!joiner), true, join_week);
  }

  // --- non-member ASes -------------------------------------------------------
  const std::size_t member_as_count = ases_.size();
  const std::size_t remaining = cfg_.as_count - member_as_count;
  const std::size_t reseller_customers =
      std::max<std::size_t>(4, remaining / 280);  // ~150 at paper scale
  const std::size_t near_count =
      static_cast<std::size_t>(0.489 * static_cast<double>(cfg_.as_count));
  const std::size_t global_count = remaining - near_count - reseller_customers;

  const auto pick_role = [&](bool near) {
    const double r = rng.next_double();
    if (near) {
      if (r < 0.45) return AsRole::kEyeball;
      if (r < 0.70) return AsRole::kEnterprise;
      if (r < 0.78) return AsRole::kHoster;
      if (r < 0.85) return AsRole::kContent;
      if (r < 0.93) return AsRole::kUniversity;
      if (r < 0.98) return AsRole::kTransit;
      return AsRole::kCdn;
    }
    if (r < 0.40) return AsRole::kEyeball;
    if (r < 0.72) return AsRole::kEnterprise;
    if (r < 0.80) return AsRole::kHoster;
    if (r < 0.86) return AsRole::kContent;
    if (r < 0.96) return AsRole::kUniversity;
    return AsRole::kTransit;
  };

  for (std::size_t i = 0; i < near_count; ++i)
    add_as(fresh_asn(), pick_role(true), pick_country(rng.next_bool(0.55)),
           false, 0);
  near_end_ = ases_.size();
  for (std::size_t i = 0; i < global_count; ++i)
    add_as(fresh_asn(), pick_role(false), pick_country(rng.next_bool(0.15)),
           false, 0);
  // Reseller customers: far-away networks with server infrastructure.
  static constexpr const char* kFarCodes[] = {"RU", "UA", "TR", "KZ", "GE",
                                              "RS", "BY", "AZ", "MD", "AM"};
  for (std::size_t i = 0; i < reseller_customers; ++i) {
    const auto country = cc(kFarCodes[rng.next_below(std::size(kFarCodes))]);
    add_as(fresh_asn(), AsRole::kResellerCustomer, country, false, 0);
  }
  member_end_ = member_as_count;

  // --- prefixes --------------------------------------------------------------
  // Shares by locality class (Table 3, prefixes row): members 10.1%,
  // distance-1 34.1%, distance>=2 55.8%.
  const std::size_t member_prefixes =
      static_cast<std::size_t>(0.101 * static_cast<double>(cfg_.prefix_count));
  const std::size_t near_prefixes =
      static_cast<std::size_t>(0.341 * static_cast<double>(cfg_.prefix_count));
  const std::size_t global_prefixes =
      cfg_.prefix_count - member_prefixes - near_prefixes;

  // Distribute a class budget across its ASes: Zipf-ish with 1 minimum.
  const auto distribute = [&](std::size_t begin, std::size_t end,
                              std::size_t budget) {
    const std::size_t n = end - begin;
    if (n == 0) return;
    std::vector<double> weights(n);
    for (std::size_t i = 0; i < n; ++i) {
      const AsRole role = ases_[begin + i].role;
      double base = 1.0;
      switch (role) {
        case AsRole::kTier1: base = 40.0; break;
        case AsRole::kTransit: base = 10.0; break;
        case AsRole::kEyeball: base = 8.0; break;
        case AsRole::kCloud: base = 6.0; break;
        case AsRole::kHoster: base = 5.0; break;
        case AsRole::kCdn: base = 4.0; break;
        case AsRole::kContent: base = 2.0; break;
        default: base = 1.0; break;
      }
      weights[i] = base * rng.next_pareto(1.0, 1.6);
    }
    double total = 0.0;
    for (const double w : weights) total += w;
    const std::size_t spare = budget > n ? budget - n : 0;
    for (std::size_t i = 0; i < n; ++i) {
      ases_[begin + i].prefix_count = static_cast<std::uint32_t>(
          1 + std::llround(static_cast<double>(spare) * weights[i] / total));
    }
  };
  distribute(0, member_end_, member_prefixes);
  distribute(member_end_, near_end_, near_prefixes);
  distribute(near_end_, ases_.size(), global_prefixes);

  // Allocate address space sequentially, skipping reserved /8s.
  std::uint32_t cursor = 0x01000000;  // 1.0.0.0
  const auto allocate = [&](std::uint8_t length) {
    const std::uint32_t size = 1u << (32 - length);
    // Align the cursor to the prefix size.
    cursor = (cursor + size - 1) & ~(size - 1);
    while (reserved_slash8(cursor >> 24)) {
      cursor = ((cursor >> 24) + 1) << 24;
    }
    const net::Ipv4Prefix prefix{net::Ipv4Addr{cursor}, length};
    cursor += size;
    return prefix;
  };

  const auto prefix_length_for = [&](AsRole role) -> std::uint8_t {
    const auto jitter = static_cast<std::uint8_t>(rng.next_below(3));
    switch (role) {
      case AsRole::kTier1: return static_cast<std::uint8_t>(17 + jitter);
      case AsRole::kEyeball: return static_cast<std::uint8_t>(18 + jitter);
      case AsRole::kCloud: return static_cast<std::uint8_t>(17 + jitter);
      case AsRole::kHoster: return static_cast<std::uint8_t>(19 + jitter);
      case AsRole::kCdn: return static_cast<std::uint8_t>(20 + jitter);
      case AsRole::kTransit: return static_cast<std::uint8_t>(19 + jitter);
      case AsRole::kContent: return static_cast<std::uint8_t>(21 + jitter);
      case AsRole::kReseller: return static_cast<std::uint8_t>(21 + jitter);
      case AsRole::kResellerCustomer: return static_cast<std::uint8_t>(21 + jitter);
      case AsRole::kUniversity: return static_cast<std::uint8_t>(21 + jitter);
      case AsRole::kEnterprise: return static_cast<std::uint8_t>(22 + jitter);
    }
    return 22;
  };

  prefixes_.reserve(cfg_.prefix_count + 16);
  as_capacity_.assign(ases_.size(), 0);
  as_allocated_.assign(ases_.size(), 0);
  for (std::uint32_t as_index = 0; as_index < ases_.size(); ++as_index) {
    AsRecord& as = ases_[as_index];
    as.first_prefix = static_cast<std::uint32_t>(prefixes_.size());
    for (std::uint32_t p = 0; p < as.prefix_count; ++p) {
      const net::Ipv4Prefix prefix = allocate(prefix_length_for(as.role));
      prefixes_.push_back(PrefixRecord{prefix, as_index});
      as_capacity_[as_index] += prefix.size() - 2;
    }
  }

  // --- IXP fabric ------------------------------------------------------------
  for (std::uint32_t i = 0; i < member_end_; ++i) {
    const AsRecord& as = ases_[i];
    if (!as.member) continue;
    fabric::Member member;
    member.asn = as.asn;
    member.name = "member-" + as.asn.to_string();
    member.join_week = as.join_week;
    switch (as.role) {
      case AsRole::kTier1: member.kind = fabric::MemberKind::kTier1; break;
      case AsRole::kTransit: member.kind = fabric::MemberKind::kTransit; break;
      case AsRole::kEyeball: member.kind = fabric::MemberKind::kEyeball; break;
      case AsRole::kContent: member.kind = fabric::MemberKind::kContent; break;
      case AsRole::kCdn: member.kind = fabric::MemberKind::kCdn; break;
      case AsRole::kHoster: member.kind = fabric::MemberKind::kHoster; break;
      case AsRole::kCloud: member.kind = fabric::MemberKind::kCloud; break;
      case AsRole::kReseller: member.kind = fabric::MemberKind::kReseller; break;
      default: member.kind = fabric::MemberKind::kEnterprise; break;
    }
    member.port_speed_gbps = as.role == AsRole::kTier1 ? 100 : 10;
    ixp_.add_member(std::move(member));
  }

  // --- background / client activity weights ----------------------------------
  // Table 3, IPs row: A(L) 42.3%, A(M) 45.0%, A(G) 12.7%. Named eyeballs
  // take their catalog share; the remainder of each class budget spreads
  // Pareto-heavy across the class.
  double named_member_share = 0.0;
  double named_near_share = 0.0;
  for (const EyeballSpec& spec : named_eyeball_specs()) {
    for (auto& as : ases_) {
      if (as.asn != spec.asn) continue;
      as.background_weight = spec.ip_share;
      (spec.member ? named_member_share : named_near_share) += spec.ip_share;
      break;
    }
  }
  const auto spread_background = [&](std::size_t begin, std::size_t end,
                                     double budget) {
    std::vector<double> weights(end - begin, 0.0);
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      if (ases_[i].background_weight > 0.0) continue;  // named, already set
      double base = ases_[i].role == AsRole::kEyeball ? 6.0 : 1.0;
      if (ases_[i].role == AsRole::kUniversity) base = 2.0;
      // Country factor: the giant non-European host populations (Table 2's
      // "all IPs" head is US, then DE, then CN) concentrate in fewer,
      // larger ASes than the European member fabric.
      switch (geo::region_of(ases_[i].country)) {
        case geo::Region::kUS: base *= 2.6; break;
        case geo::Region::kCN: base *= 2.2; break;
        case geo::Region::kRU: base *= 1.6; break;
        default: break;
      }
      const double w = base * rng.next_pareto(1.0, 1.5);
      weights[i - begin] = w;
      total += w;
    }
    if (total <= 0.0) return;
    for (std::size_t i = begin; i < end; ++i) {
      if (weights[i - begin] == 0.0) continue;
      ases_[i].background_weight = budget * weights[i - begin] / total;
    }
  };
  spread_background(0, member_end_, 0.423 - named_member_share);
  spread_background(member_end_, near_end_, 0.450 - named_near_share);
  spread_background(near_end_, ases_.size(), 0.127);

  // Clients live in eyeball ASes, proportional to background activity.
  double total_client_weight = 0.0;
  for (auto& as : ases_) {
    if (as.role == AsRole::kEyeball || as.role == AsRole::kTier1) {
      as.client_weight = as.background_weight;
      total_client_weight += as.client_weight;
    }
  }

  // Client address slots: allocated per prefix *proportionally to the
  // AS's client weight* (an even per-address split would park most
  // clients in far-away eyeballs), drawn from the upper 3/4 of the
  // prefix (the lower quarter is reserved for server allocation).
  struct ClientRange {
    std::uint64_t end;  // cumulative slots up to and including this prefix
    net::Ipv4Prefix prefix;
    std::uint32_t as_index;
  };
  std::vector<ClientRange> ranges;
  std::uint64_t cumulative = 0;
  const double slot_budget = 3.0 * static_cast<double>(cfg_.client_pool);
  for (std::uint32_t p = 0; p < prefixes_.size(); ++p) {
    const AsRecord& as = ases_[prefixes_[p].as_index];
    if (as.client_weight <= 0.0 || total_client_weight <= 0.0) continue;
    const double share =
        as.client_weight / total_client_weight / as.prefix_count;
    const std::uint64_t capacity = std::min<std::uint64_t>(
        prefixes_[p].prefix.size() * 3 / 4,
        std::max<std::uint64_t>(2, static_cast<std::uint64_t>(share * slot_budget)));
    cumulative += capacity;
    ranges.push_back({cumulative, prefixes_[p].prefix, prefixes_[p].as_index});
  }

  // Client k hashes to a slot in [0, cumulative) and lives in the range
  // holding that slot. A guide table (one bucket per range, each pointing
  // at the first range ending past the bucket's start) turns the search
  // into a short forward scan.
  client_addrs_.assign(cfg_.client_pool, ClientAddr{});
  if (ranges.empty()) return;
  const std::uint64_t width = (cumulative + ranges.size() - 1) / ranges.size();
  std::vector<std::uint32_t> guide((cumulative + width - 1) / width);
  std::uint32_t r = 0;
  for (std::size_t b = 0; b < guide.size(); ++b) {
    while (ranges[r].end <= b * width) ++r;
    guide[b] = r;
  }
  for (std::uint64_t k = 0; k < client_addrs_.size(); ++k) {
    const std::uint64_t slot =
        util::mix64(cfg_.seed ^ 0xc11e47ull ^ k) % cumulative;
    std::uint32_t i = guide[slot / width];
    while (ranges[i].end <= slot) ++i;
    const std::uint64_t before = i == 0 ? 0 : ranges[i - 1].end;
    const ClientRange& range = ranges[i];
    const std::uint64_t offset = range.prefix.size() / 4 + (slot - before);
    client_addrs_[k] = {
        range.prefix.address_at(std::min(offset, range.prefix.size() - 2)),
        range.as_index};
  }
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

void InternetModel::build_topology(util::Rng& rng) {
  // Collect member indices; transit-ish members attract more customers.
  std::vector<std::uint32_t> member_indices;
  std::vector<std::uint32_t> attach_indices;  // members that take customers
  std::vector<double> member_attract;
  for (std::uint32_t i = 0; i < member_end_; ++i) {
    if (!ases_[i].member) continue;
    member_indices.push_back(i);
    // Weekly joiners are fresh regional members: nobody routes through
    // them yet, so they must not become anyone's entry point.
    if (ases_[i].join_week > cfg_.first_week) continue;
    attach_indices.push_back(i);
    double w = 1.0;
    switch (ases_[i].role) {
      case AsRole::kTier1: w = 60.0; break;
      case AsRole::kTransit: w = 18.0; break;
      case AsRole::kEyeball: w = 3.0; break;
      default: w = 1.0; break;
    }
    member_attract.push_back(w);
  }
  const util::WeightedSampler member_sampler{member_attract};

  // Tier-1 mesh (cosmetic but keeps the graph realistic).
  std::vector<std::uint32_t> tier1s;
  for (const std::uint32_t m : member_indices)
    if (ases_[m].role == AsRole::kTier1) tier1s.push_back(m);
  for (std::size_t i = 0; i < tier1s.size(); ++i)
    for (std::size_t j = i + 1; j < tier1s.size(); ++j)
      graph_.add_link(ases_[tier1s[i]].asn, ases_[tier1s[j]].asn);
  for (const std::uint32_t m : member_indices) graph_.add_as(ases_[m].asn);

  // Non-member ASes created in the named head block (e.g. Chinanet, which
  // exchanges traffic with members without being one) attach like near
  // ASes and need a proper entry member.
  for (std::uint32_t i = 0; i < member_end_; ++i) {
    if (ases_[i].member) continue;
    const std::uint32_t m = attach_indices[member_sampler.sample(rng)];
    graph_.add_link(ases_[i].asn, ases_[m].asn);
    ases_[i].entry_member = m;
  }

  // Near ASes attach to 1-3 members.
  std::vector<std::uint32_t> near_indices;
  for (std::uint32_t i = static_cast<std::uint32_t>(member_end_);
       i < near_end_; ++i) {
    const std::uint32_t upstreams = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    std::uint32_t entry = 0;
    for (std::uint32_t u = 0; u < upstreams; ++u) {
      const std::uint32_t m = attach_indices[member_sampler.sample(rng)];
      graph_.add_link(ases_[i].asn, ases_[m].asn);
      if (u == 0) entry = m;
    }
    ases_[i].entry_member = entry;
    near_indices.push_back(i);
  }

  // Global ASes attach to 1-2 near ASes (never directly to members).
  for (std::uint32_t i = static_cast<std::uint32_t>(near_end_);
       i < ases_.size(); ++i) {
    if (ases_[i].role == AsRole::kResellerCustomer) {
      // Customers reach the fabric through the reseller's port but are
      // NOT members and NOT adjacent to any member in the BGP graph:
      // they attach to an intermediate (the reseller's backhaul).
      const std::uint32_t via =
          near_indices[rng.next_below(near_indices.size())];
      graph_.add_link(ases_[i].asn, ases_[via].asn);
      ases_[i].entry_member = reseller_as_;
      continue;
    }
    const std::uint32_t parents = 1 + static_cast<std::uint32_t>(rng.next_below(2));
    std::uint32_t entry = 0;
    for (std::uint32_t u = 0; u < parents; ++u) {
      const std::uint32_t parent =
          near_indices[rng.next_below(near_indices.size())];
      graph_.add_link(ases_[i].asn, ases_[parent].asn);
      if (u == 0) entry = ases_[parent].entry_member;
    }
    ases_[i].entry_member = entry;
  }

  // Locality classification from the graph.
  std::vector<net::Asn> member_asns;
  for (const std::uint32_t m : member_indices) member_asns.push_back(ases_[m].asn);
  const auto locality = graph_.classify(member_asns);
  for (auto& as : ases_) {
    const auto it = locality.find(as.asn);
    as.locality = it == locality.end() ? net::Locality::kGlobal : it->second;
  }
}

// ---------------------------------------------------------------------------
// Server address allocation
// ---------------------------------------------------------------------------

net::Ipv4Addr InternetModel::allocate_server_addr(std::uint32_t as_index,
                                                  util::Rng& rng) {
  AsRecord& as = ases_[as_index];
  // Walk the AS's prefixes round-robin, taking offsets from the low
  // quarter (clients use the upper 3/4). Collisions are resolved by
  // probing forward.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint32_t p =
        as.first_prefix + static_cast<std::uint32_t>(rng.next_below(as.prefix_count));
    const net::Ipv4Prefix prefix = prefixes_[p].prefix;
    const std::uint64_t quarter = std::max<std::uint64_t>(4, prefix.size() / 4);
    const std::uint64_t offset = 1 + rng.next_below(quarter - 2);
    const net::Ipv4Addr addr = prefix.address_at(offset);
    if (server_index_.count(addr) == 0) return addr;
  }
  // Dense AS: exhaustive scan of all prefixes' low quarters, then spill
  // into the client range (a server farm can fill a small AS entirely).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t p = as.first_prefix;
         p < as.first_prefix + as.prefix_count; ++p) {
      const net::Ipv4Prefix prefix = prefixes_[p].prefix;
      const std::uint64_t quarter = std::max<std::uint64_t>(4, prefix.size() / 4);
      const std::uint64_t begin = pass == 0 ? 1 : quarter;
      const std::uint64_t end = pass == 0 ? quarter : prefix.size() - 1;
      for (std::uint64_t offset = begin; offset < end; ++offset) {
        const net::Ipv4Addr addr = prefix.address_at(offset);
        if (server_index_.count(addr) == 0) return addr;
      }
    }
  }
  throw std::runtime_error{"allocate_server_addr: AS address space exhausted"};
}

geo::CountryCode InternetModel::server_country(const ServerRecord& server) const {
  if (server.data_center >= 0) {
    const auto& dcs = orgs_[server.org].data_centers;
    if (static_cast<std::size_t>(server.data_center) < dcs.size())
      return dcs[static_cast<std::size_t>(server.data_center)].country;
  }
  return ases_[server.host_as].country;
}

bool InternetModel::server_active(std::uint32_t server_index, int week) const {
  const ServerRecord& server = servers_[server_index];
  // Hurricane-Sandy case study: the cloud provider's us-east servers all
  // but vanish in week 44 (§4.2).
  if (week == 44 && server.data_center >= 0 && sandy_org_ &&
      server.org == *sandy_org_) {
    const auto& dc = orgs_[server.org].data_centers
        [static_cast<std::size_t>(server.data_center)];
    if (dc.name == "us-east") {
      const std::uint64_t h = util::mix64(cfg_.seed ^ (0x5a4dull << 40) ^
                                          (std::uint64_t{server_index} << 8));
      return (h & 0xff) < 12;  // ~5% survive
    }
  }
  switch (server.activity.kind) {
    case ActivityKind::kStable:
      return true;
    case ActivityKind::kRecurrent: {
      const std::uint64_t h = util::mix64(
          cfg_.seed ^ (std::uint64_t{server_index} << 16) ^
          static_cast<std::uint64_t>(week));
      double p = server.activity.p;
      if (week == 44) p *= 0.90;  // the global week-44 dip of Fig. 4a
      return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
    }
    case ActivityKind::kArrival: {
      if (week < server.activity.first_week) return false;
      if (week == server.activity.first_week) return true;
      const std::uint64_t h = util::mix64(
          cfg_.seed ^ 0xa11ull ^ (std::uint64_t{server_index} << 16) ^
          static_cast<std::uint64_t>(week));
      return static_cast<double>(h >> 11) * 0x1.0p-53 < server.activity.p;
    }
  }
  return false;
}

std::optional<std::uint32_t> InternetModel::server_by_addr(
    net::Ipv4Addr addr) const {
  const auto it = server_index_.find(addr);
  if (it == server_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> InternetModel::as_index_of(net::Asn asn) const {
  const auto it = asn_index_.find(asn);
  if (it == asn_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> InternetModel::org_by_name(
    std::string_view name) const {
  const auto it = org_index_.find(std::string{name});
  if (it == org_index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ixp::gen
