// The synthetic Internet.
//
// InternetModel is the ground truth everything else measures against: the
// AS topology around the IXP, the routed prefix space with geolocation,
// the IXP member fabric, the organizations and their (heterogeneously
// deployed) server infrastructures, the DNS zones and X.509 certificates
// describing those servers, the Alexa-style site ranking, and the open
// resolver population. Construction is fully deterministic from the
// ScaleConfig seed.
//
// The model deliberately contains everything the paper says exists but
// the IXP cannot see — private clusters, far-away deployments, servers
// that answer only invalid URIs (§3.3) — so the blind-spot analyses have
// real ground truth to be blind about.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dns/name.hpp"
#include "dns/resolver.hpp"
#include "dns/zone_db.hpp"
#include "fabric/ixp.hpp"
#include "gen/org_catalog.hpp"
#include "gen/scale.hpp"
#include "geo/geo_database.hpp"
#include "net/as_graph.hpp"
#include "net/ipv4.hpp"
#include "net/routing_table.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "x509/certificate.hpp"

namespace ixp::gen {

/// Structural role of an AS in the synthetic topology.
enum class AsRole : std::uint8_t {
  kTier1,
  kTransit,
  kEyeball,
  kContent,
  kCdn,
  kHoster,
  kCloud,
  kEnterprise,
  kUniversity,
  kReseller,         // IXP member whose port fronts remote customers
  kResellerCustomer, // remote AS reaching the IXP through a reseller
};

struct AsRecord {
  net::Asn asn;
  AsRole role = AsRole::kEnterprise;
  geo::CountryCode country;
  bool member = false;
  int join_week = 0;
  /// Index (into ases()) of the member AS whose IXP port carries this
  /// AS's traffic; self for members.
  std::uint32_t entry_member = 0;
  net::Locality locality = net::Locality::kGlobal;
  std::uint32_t first_prefix = 0;  // contiguous range in prefixes()
  std::uint32_t prefix_count = 0;
  /// Relative weight of this AS in weekly background (non-server) IP
  /// activity; drives Table 1/2/3's IP columns.
  double background_weight = 0.0;
  /// Relative weight in the Web *client* population.
  double client_weight = 0.0;
};

struct PrefixRecord {
  net::Ipv4Prefix prefix;
  std::uint32_t as_index = 0;
};

/// Server roles observed as ports: HTTP (80/8080), HTTPS (443), RTMP (1935).
inline constexpr std::uint8_t kRoleHttp = 0x01;
inline constexpr std::uint8_t kRoleHttps = 0x02;
inline constexpr std::uint8_t kRoleRtmp = 0x04;

/// Why a server is invisible at the IXP (§3.3's four categories).
enum class BlindReason : std::uint8_t {
  kNone,            // visible
  kPrivateCluster,  // serves only clients inside its host AS
  kFarRegion,       // geographically far, region-aware delivery
  kErrorHandler,    // only answers invalid URIs
  kSmallFarOrg,     // small org/university far from the IXP
};

/// Longitudinal activity pattern of a server across the 17 weeks.
enum class ActivityKind : std::uint8_t {
  kStable,     // active every week (Fig. 4's white segment)
  kRecurrent,  // active each week independently with probability `p`
  kArrival,    // first active in `first_week`, active afterwards
};

struct Activity {
  ActivityKind kind = ActivityKind::kStable;
  float p = 1.0f;
  std::int16_t first_week = 0;
};

/// What the prober finds when it crawls an IP on port 443 (§2.2.2).
enum class TlsBehavior : std::uint8_t {
  kNoResponse,   // candidate that never answers (most client IPs)
  kValidStable,  // proper certificate, stable across fetches
  kInvalidCert,  // responds with a failing certificate
  kUnstable,     // cloud churn: different tenant per fetch
  kSquatter,     // SSH/VPN on 443: no X.509 material at all
};

struct ServerRecord {
  net::Ipv4Addr addr;
  /// Administrative owner (ground truth for §5.1 clustering): the org
  /// that manages the IP and its content. For hoster-managed tenants this
  /// is the hoster.
  std::uint32_t org = 0;  // index into orgs()
  /// The org whose *content* the server delivers (equals `org` except for
  /// hoster-managed tenant servers).
  std::uint32_t content_org = 0;
  std::uint32_t host_as = 0;   // index into ases()
  /// Week this server started speaking HTTPS (0 = since the beginning);
  /// drives the §4.2 HTTPS-growth case study.
  std::int16_t https_since = 0;
  std::uint8_t roles = kRoleHttp;
  bool dual_role = false;      // also initiates connections (§2.2.2)
  BlindReason blind = BlindReason::kNone;
  Activity activity;
  TlsBehavior tls = TlsBehavior::kNoResponse;
  float traffic_weight = 1.0f;   // relative within its organization
  std::int16_t data_center = -1; // index into the org's data_centers
  // Metadata availability (targets §2.4's coverage percentages).
  bool has_ptr = false;          // reverse DNS hostname
  bool has_reverse_soa = false;  // SOA reachable even without hostname
  bool serves_uris = false;      // URIs recoverable from payload at the IXP

  [[nodiscard]] bool visible() const noexcept {
    return blind == BlindReason::kNone;
  }
};

struct OrgRecord {
  std::string name;
  dns::DnsName domain;  // e.g. akamai.com
  OrgKind kind = OrgKind::kSite;
  NamingScheme naming = NamingScheme::kOwnSoa;
  std::optional<std::uint32_t> home_as;  // index into ases(); CDN77: nullopt
  double traffic_share = 0.0;            // of weekly server traffic
  double indirect_link_fraction = 0.0;
  std::uint32_t server_count = 0;  // servers administratively owned
  bool named_head = false;
  bool publishes_server_ips = false;
  std::vector<OrgSpec::DataCenter> data_centers;
  /// For tenants: the hoster org their servers live in (fig 6c).
  std::optional<std::uint32_t> hosted_by;
};

class InternetModel {
 public:
  explicit InternetModel(const ScaleConfig& cfg);

  InternetModel(const InternetModel&) = delete;
  InternetModel& operator=(const InternetModel&) = delete;

  [[nodiscard]] const ScaleConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<AsRecord>& ases() const noexcept { return ases_; }
  [[nodiscard]] const std::vector<PrefixRecord>& prefixes() const noexcept {
    return prefixes_;
  }
  [[nodiscard]] const std::vector<OrgRecord>& orgs() const noexcept { return orgs_; }
  [[nodiscard]] const std::vector<ServerRecord>& servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] const fabric::Ixp& ixp() const noexcept { return ixp_; }
  [[nodiscard]] const net::RoutingTable& routing() const noexcept {
    return routing_;
  }
  [[nodiscard]] const net::AsGraph& as_graph() const noexcept { return graph_; }
  [[nodiscard]] const geo::GeoDatabase& geo_db() const noexcept { return geo_; }
  [[nodiscard]] const dns::ZoneDatabase& dns_db() const noexcept { return dns_; }
  [[nodiscard]] const dns::ResolverPopulation& resolvers() const noexcept {
    return resolvers_;
  }
  [[nodiscard]] const x509::RootStore& root_store() const noexcept {
    return roots_;
  }

  /// Alexa-style ranked site list (rank 0 = most popular).
  struct Site {
    dns::DnsName domain;
    std::uint32_t org = 0;  // the organization owning the content
    /// Set when the site's delivery is outsourced to a CDN: DNS resolves
    /// the site to the CDN's servers ("any content is delivered by any of
    /// its servers", §5.1's Akamai validation).
    std::optional<std::uint32_t> cdn;
  };
  [[nodiscard]] const std::vector<Site>& sites() const noexcept { return sites_; }

  /// Country of a server (host AS country, or its data-center country).
  [[nodiscard]] geo::CountryCode server_country(const ServerRecord& server) const;

  /// Whether a server is active (has traffic) in an absolute week.
  /// Deterministic: recurrent servers hash (seed, server, week).
  [[nodiscard]] bool server_active(std::uint32_t server_index, int week) const;

  /// One client of the Web client pool: its address and the index (into
  /// ases()) of the AS that originates it.
  struct ClientAddr {
    net::Ipv4Addr addr;
    std::uint32_t as_index = 0;
  };

  /// The k-th client of the pool, k < config().client_pool (deterministic,
  /// stable mapping; one table read).
  [[nodiscard]] const ClientAddr& client_addr(std::uint64_t k) const noexcept {
    return client_addrs_[k];
  }

  /// Index lookup: server by IP (visible and blind alike).
  [[nodiscard]] std::optional<std::uint32_t> server_by_addr(net::Ipv4Addr addr) const;

  /// Org index by name (named head entities), if present.
  [[nodiscard]] std::optional<std::uint32_t> org_by_name(std::string_view name) const;

  /// Simulates crawling `addr` on TCP 443 `times` times at the given week
  /// (the §2.2.2 active measurement). Returns one chain per successful
  /// fetch; empty when nothing answers.
  [[nodiscard]] std::vector<x509::CertificateChain> fetch_chains(
      net::Ipv4Addr addr, int times, int week) const;

  /// Zero-copy form of fetch_chains for the probe engine: the chain the
  /// `fetch_index`-th crawl of `addr` would deliver this `week`, or nullptr
  /// when nothing answers. Stable/invalid servers alias model-owned
  /// storage; unstable tenants materialize into `scratch`; squatters point
  /// at an empty chain in `scratch`. For any f < times,
  /// `fetch_chains(addr, times, week)[f]` equals the pointed-to chain.
  [[nodiscard]] const x509::CertificateChain* fetch_chain_view(
      net::Ipv4Addr addr, int fetch_index, int week,
      x509::CertificateChain& scratch) const;

  /// The reseller member AS index (§4.2's reseller case study).
  [[nodiscard]] std::uint32_t reseller_as() const noexcept { return reseller_as_; }

  /// Server indices delivering content for `content_org` (used by the
  /// workload to map a requested site to a serving IP, and by the DNS
  /// sweep to resolve site domains).
  [[nodiscard]] const std::vector<std::uint32_t>& content_servers(
      std::uint32_t content_org) const;

  /// Server indices administratively owned by an organization (ground
  /// truth for the §5.1 clustering validation).
  [[nodiscard]] const std::vector<std::uint32_t>& org_servers(
      std::uint32_t org_index) const;

  /// Resolves a site through a specific resolver, with the CDN-style
  /// topology-aware mapping of §3.3: resolvers inside an AS may be handed
  /// that AS's private-cluster servers; far-region deployments surface
  /// only to same-region resolvers. Non-open resolvers return nothing.
  [[nodiscard]] std::vector<net::Ipv4Addr> resolve_site(
      std::size_t site_rank, const dns::Resolver& resolver, int week) const;

  /// A server IP published by an org that discloses its ranges (EC2's
  /// public ranges, CDN77's server list, the cloud provider's DC map).
  struct PublishedServer {
    net::Ipv4Addr addr;
    std::int16_t data_center = -1;  // index into the org's data_centers
  };
  /// Published IPs of `org_index` (empty unless publishes_server_ips).
  /// For clouds this covers everything inside their ranges, including
  /// tenant and Netflix-style servers hosted there.
  [[nodiscard]] std::vector<PublishedServer> published_servers(
      std::uint32_t org_index) const;

  /// AS index for an ASN, if the ASN exists in the model.
  [[nodiscard]] std::optional<std::uint32_t> as_index_of(net::Asn asn) const;

  /// Total number of *visible* servers (blind ones excluded).
  [[nodiscard]] std::size_t visible_server_count() const noexcept {
    return visible_server_count_;
  }

 private:
  void build_ases_and_prefixes(util::Rng& rng);
  void build_topology(util::Rng& rng);
  void build_orgs_and_servers(util::Rng& rng);
  void build_dns_and_certs(util::Rng& rng);
  void build_sites(util::Rng& rng);
  void build_resolvers(util::Rng& rng);

  /// Picks a host AS for a server of `org_index` (used during build).
  [[nodiscard]] net::Ipv4Addr allocate_server_addr(std::uint32_t as_index,
                                                   util::Rng& rng);

  /// The tenant chain a kUnstable server delivers on fetch `f` of `week` —
  /// shared by fetch_chains and fetch_chain_view so both stay identical.
  [[nodiscard]] x509::CertificateChain make_unstable_chain(net::Ipv4Addr addr,
                                                           int week,
                                                           int f) const;

  ScaleConfig cfg_;
  std::vector<AsRecord> ases_;
  std::vector<PrefixRecord> prefixes_;
  std::vector<OrgRecord> orgs_;
  std::vector<ServerRecord> servers_;
  fabric::Ixp ixp_;
  net::RoutingTable routing_;
  net::AsGraph graph_;
  geo::GeoDatabase geo_;
  dns::ZoneDatabase dns_;
  dns::ResolverPopulation resolvers_;
  x509::RootStore roots_;
  std::vector<Site> sites_;
  std::unordered_map<net::Ipv4Addr, std::uint32_t> server_index_;
  std::unordered_map<std::string, std::uint32_t> org_index_;
  std::unordered_map<std::uint32_t, x509::CertificateChain> cert_chains_;  // server -> chain
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> content_servers_;
  /// (content org << 32 | host AS) -> servers; the CDN-mapping index used
  /// by resolve_site to hand resolvers their in-network servers.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> content_as_servers_;
  std::vector<std::vector<std::uint32_t>> org_servers_;
  std::vector<ClientAddr> client_addrs_;  // per client-pool index k
  std::uint32_t reseller_as_ = 0;
  std::size_t visible_server_count_ = 0;
  std::vector<std::uint64_t> as_capacity_;   // usable addresses per AS
  std::vector<std::uint64_t> as_allocated_;  // servers placed per AS
  std::unordered_map<net::Asn, std::uint32_t> asn_index_;
  std::unordered_set<std::uint32_t> used_asns_;
  std::size_t member_end_ = 0;  // ases_[0, member_end_) hold the members
  std::size_t near_end_ = 0;    // ases_[member_end_, near_end_) are distance 1
  std::optional<std::uint32_t> sandy_org_;  // the hurricane case-study cloud
};

}  // namespace ixp::gen
