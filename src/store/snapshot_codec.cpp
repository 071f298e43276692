#include "store/snapshot_codec.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "classify/dissector.hpp"
#include "classify/peering_filter.hpp"
#include "dns/name.hpp"
#include "dns/uri.hpp"
#include "store/wire.hpp"

namespace ixp::store {

namespace {

using classify::FilterCounters;
using classify::TrafficDissector;

void put_counters(wire::Writer& out, const FilterCounters& counters) {
  for (const std::uint64_t v : counters.samples) out.u64(v);
  for (const std::uint64_t v : counters.bytes) out.u64(v);
  out.u64(counters.tcp_bytes);
  out.u64(counters.udp_bytes);
}

FilterCounters get_counters(wire::Reader& in) {
  FilterCounters counters;
  for (std::uint64_t& v : counters.samples) v = in.u64();
  for (std::uint64_t& v : counters.bytes) v = in.u64();
  counters.tcp_bytes = in.u64();
  counters.udp_bytes = in.u64();
  return counters;
}

void put_locality(wire::Writer& out, const core::LocalityTally& tally) {
  out.u64(tally.ips);
  out.f64(tally.bytes);
  out.u64(tally.prefixes);
  out.u64(tally.ases);
}

core::LocalityTally get_locality(wire::Reader& in) {
  core::LocalityTally tally;
  tally.ips = in.u64();
  tally.bytes = in.f64();
  tally.prefixes = in.u64();
  tally.ases = in.u64();
  return tally;
}

void put_name_list(wire::Writer& out, const std::vector<dns::DnsName>& names) {
  out.u32(static_cast<std::uint32_t>(names.size()));
  for (const dns::DnsName& name : names) out.str(name.text());
}

/// Smallest encodings of the records a count field announces: a string
/// is at least its u32 length, a country or AS tally four 8-byte fields
/// after its key, a server the fixed fields of its record with every
/// optional part absent.
constexpr std::size_t kMinString = 4;
constexpr std::size_t kMinCountryTally = 2 + 4 * 8;
constexpr std::size_t kMinAsTally = 4 + 4 * 8;
constexpr std::size_t kMinServer = 4 + 8 + 1 + 1 + 4 + 2 + 1 + 1 + 4 + 4;
constexpr std::size_t kMinWorkerError = 8;

/// A count read from the bytes, capped at the records the unread bytes
/// could hold: a damaged count must fail the decode, not drive a huge
/// reserve (the "Clamp the hint" rule of check_image).
std::size_t reserve_hint(const wire::Reader& in, std::uint32_t count,
                         std::size_t min_record) {
  return std::min<std::size_t>(count, in.remaining() / min_record);
}

bool get_name_list(wire::Reader& in, std::vector<dns::DnsName>& names) {
  const std::uint32_t count = in.u32();
  names.reserve(reserve_hint(in, count, kMinString));
  for (std::uint32_t i = 0; in.ok() && i < count; ++i) {
    auto name = dns::DnsName::parse(in.str_view());
    if (!name) return false;
    names.push_back(std::move(*name));
  }
  return in.ok();
}

constexpr std::uint8_t kServerHttp = 0x01;
constexpr std::uint8_t kServerHttps = 0x02;
constexpr std::uint8_t kServerRtmp = 0x04;
constexpr std::uint8_t kServerAlsoClient = 0x08;

}  // namespace

std::vector<std::byte> SnapshotCodec::encode_shard(
    const core::WeekShard& shard) {
  wire::Writer out;
  out.u32(static_cast<std::uint32_t>(shard.week()));
  put_counters(out, shard.counters_);
  out.u64(shard.samples_observed_);

  const TrafficDissector& d = shard.dissector_;
  out.u64(d.total_bytes_);

  // Activity table, sorted by address: FlatHashMap iteration order depends
  // on insertion history, canonical bytes must not. The partitions cover
  // ascending address ranges, so each is sorted on its own and written in
  // index order.
  out.u32(static_cast<std::uint32_t>(d.activity().size()));
  std::vector<std::pair<net::Ipv4Addr, classify::IpActivity>> activity;
  for (const classify::ActivityTable& table : d.activity_) {
    activity.assign(table.begin(), table.end());
    std::sort(activity.begin(), activity.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [addr, entry] : activity) {
      out.u32(addr.value());
      out.u32(entry.samples);
      out.u64(entry.bytes);
      out.u8(entry.flags);
    }
  }

  // Host-header evidence, servers by address, observations by their
  // (first_seq, name) order statistic — the same key the bounded set
  // keeps, so the layout is stable under any shard split.
  std::size_t server_count = 0;
  for (const auto& table : d.hosts_) server_count += table.size();
  out.u32(static_cast<std::uint32_t>(server_count));
  std::vector<net::Ipv4Addr> servers;
  for (const auto& table : d.hosts_) {
    servers.clear();
    for (const auto& [addr, hosts] : table) servers.push_back(addr);
    std::sort(servers.begin(), servers.end());
    for (const net::Ipv4Addr addr : servers) {
      auto observations = table.find(addr)->second;
      std::sort(observations.begin(), observations.end(),
                [](const auto& a, const auto& b) {
                  if (a.first_seq != b.first_seq) return a.first_seq < b.first_seq;
                  return a.name < b.name;
                });
      out.u32(addr.value());
      out.u32(static_cast<std::uint32_t>(observations.size()));
      for (const auto& obs : observations) {
        out.u64(obs.first_seq);
        out.str(obs.name.view());
      }
    }
  }
  return out.take();
}

std::vector<std::byte> SnapshotCodec::encode_report(
    const core::WeeklyReport& report) {
  wire::Writer out;
  out.u32(static_cast<std::uint32_t>(report.week));
  put_counters(out, report.filters);

  const classify::DissectionSummary& ds = report.dissection;
  out.u64(ds.unique_ips);
  out.u64(ds.http_server_ips);
  out.u64(ds.https_candidate_ips);
  out.u64(ds.https_server_ips);
  out.u64(ds.web_server_ips);
  out.u64(ds.client_ips);
  out.u64(ds.dual_role_ips);
  out.u64(ds.multi_purpose_ips);
  out.f64(ds.dual_role_server_bytes);
  out.f64(ds.total_bytes);

  out.u64(report.https_funnel.candidates);
  out.u64(report.https_funnel.responded);
  out.u64(report.https_funnel.confirmed);
  out.u64(report.https_funnel.early_exits);

  const classify::MetadataCoverage& mc = report.metadata_coverage;
  out.u64(mc.servers);
  out.u64(mc.with_dns);
  out.u64(mc.with_uri);
  out.u64(mc.with_cert);
  out.u64(mc.with_any);
  out.u64(mc.cleaned_out);
  out.u64(report.metadata_cleaned_out);

  out.u64(report.peering_ips);
  out.u64(report.peering_prefixes);
  out.u64(report.peering_ases);
  out.u64(report.peering_countries);
  out.u64(report.server_ips);
  out.u64(report.server_prefixes);
  out.u64(report.server_ases);
  out.u64(report.server_countries);

  std::vector<std::pair<geo::CountryCode, core::CountryTally>> by_country;
  by_country.reserve(report.by_country.size());
  for (const auto& [code, tally] : report.by_country)
    by_country.emplace_back(code, tally);
  std::sort(by_country.begin(), by_country.end(),
            [](const auto& a, const auto& b) {
              return a.first.packed() < b.first.packed();
            });
  out.u32(static_cast<std::uint32_t>(by_country.size()));
  for (const auto& [code, tally] : by_country) {
    out.u16(code.packed());
    out.u64(tally.ips);
    out.f64(tally.bytes);
    out.u64(tally.server_ips);
    out.f64(tally.server_bytes);
  }

  std::vector<std::pair<net::Asn, core::AsTally>> by_as;
  by_as.reserve(report.by_as.size());
  for (const auto& [asn, tally] : report.by_as) by_as.emplace_back(asn, tally);
  std::sort(by_as.begin(), by_as.end(), [](const auto& a, const auto& b) {
    return a.first.value() < b.first.value();
  });
  out.u32(static_cast<std::uint32_t>(by_as.size()));
  for (const auto& [asn, tally] : by_as) {
    out.u32(asn.value());
    out.u64(tally.ips);
    out.f64(tally.bytes);
    out.u64(tally.server_ips);
    out.f64(tally.server_bytes);
  }

  for (const auto& tally : report.peering_locality) put_locality(out, tally);
  for (const auto& tally : report.server_locality) put_locality(out, tally);

  // Already canonically sorted by address (WeeklyReport contract).
  out.u32(static_cast<std::uint32_t>(report.servers.size()));
  for (const core::ServerObservation& server : report.servers) {
    out.u32(server.addr.value());
    out.f64(server.bytes);
    std::uint8_t flags = 0;
    if (server.http) flags |= kServerHttp;
    if (server.https) flags |= kServerHttps;
    if (server.rtmp) flags |= kServerRtmp;
    if (server.also_client) flags |= kServerAlsoClient;
    out.u8(flags);
    out.u8(server.asn.has_value() ? 1 : 0);
    out.u32(server.asn.has_value() ? server.asn->value() : 0);
    out.u16(server.country.packed());

    const classify::ServerMetadata& md = server.metadata;
    out.u8(md.hostname.has_value() ? 1 : 0);
    if (md.hostname) out.str(md.hostname->text());
    out.u8(md.soa_authority.has_value() ? 1 : 0);
    if (md.soa_authority) out.str(md.soa_authority->text());
    out.u32(static_cast<std::uint32_t>(md.uris.size()));
    for (const dns::Uri& uri : md.uris) out.str(uri.to_string());
    put_name_list(out, md.cert_names);
  }

  out.u8(report.degraded ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(report.worker_errors.size()));
  for (const std::uint64_t v : report.worker_errors) out.u64(v);
  return out.take();
}

std::optional<core::WeeklyReport> SnapshotCodec::decode_report(
    std::span<const std::byte> bytes) {
  wire::Reader in{bytes};
  core::WeeklyReport report;
  report.week = static_cast<int>(in.u32());
  report.filters = get_counters(in);

  classify::DissectionSummary& ds = report.dissection;
  ds.unique_ips = in.u64();
  ds.http_server_ips = in.u64();
  ds.https_candidate_ips = in.u64();
  ds.https_server_ips = in.u64();
  ds.web_server_ips = in.u64();
  ds.client_ips = in.u64();
  ds.dual_role_ips = in.u64();
  ds.multi_purpose_ips = in.u64();
  ds.dual_role_server_bytes = in.f64();
  ds.total_bytes = in.f64();

  report.https_funnel.candidates = in.u64();
  report.https_funnel.responded = in.u64();
  report.https_funnel.confirmed = in.u64();
  report.https_funnel.early_exits = in.u64();

  classify::MetadataCoverage& mc = report.metadata_coverage;
  mc.servers = in.u64();
  mc.with_dns = in.u64();
  mc.with_uri = in.u64();
  mc.with_cert = in.u64();
  mc.with_any = in.u64();
  mc.cleaned_out = in.u64();
  report.metadata_cleaned_out = in.u64();

  report.peering_ips = in.u64();
  report.peering_prefixes = in.u64();
  report.peering_ases = in.u64();
  report.peering_countries = in.u64();
  report.server_ips = in.u64();
  report.server_prefixes = in.u64();
  report.server_ases = in.u64();
  report.server_countries = in.u64();

  const std::uint32_t country_count = in.u32();
  report.by_country.reserve(reserve_hint(in, country_count, kMinCountryTally));
  for (std::uint32_t i = 0; in.ok() && i < country_count; ++i) {
    const std::uint16_t packed = in.u16();
    const geo::CountryCode code{static_cast<char>(packed >> 8),
                                static_cast<char>(packed & 0xff)};
    core::CountryTally tally;
    tally.ips = in.u64();
    tally.bytes = in.f64();
    tally.server_ips = in.u64();
    tally.server_bytes = in.f64();
    report.by_country.try_emplace(code, tally);
  }

  const std::uint32_t as_count = in.u32();
  report.by_as.reserve(reserve_hint(in, as_count, kMinAsTally));
  for (std::uint32_t i = 0; in.ok() && i < as_count; ++i) {
    const net::Asn asn{in.u32()};
    core::AsTally tally;
    tally.ips = in.u64();
    tally.bytes = in.f64();
    tally.server_ips = in.u64();
    tally.server_bytes = in.f64();
    report.by_as.try_emplace(asn, tally);
  }

  for (auto& tally : report.peering_locality) tally = get_locality(in);
  for (auto& tally : report.server_locality) tally = get_locality(in);

  const std::uint32_t server_count = in.u32();
  report.servers.reserve(reserve_hint(in, server_count, kMinServer));
  for (std::uint32_t i = 0; in.ok() && i < server_count; ++i) {
    core::ServerObservation server;
    server.addr = net::Ipv4Addr{in.u32()};
    server.bytes = in.f64();
    const std::uint8_t flags = in.u8();
    server.http = (flags & kServerHttp) != 0;
    server.https = (flags & kServerHttps) != 0;
    server.rtmp = (flags & kServerRtmp) != 0;
    server.also_client = (flags & kServerAlsoClient) != 0;
    const bool has_asn = in.u8() != 0;
    const std::uint32_t asn = in.u32();
    if (has_asn) server.asn = net::Asn{asn};
    const std::uint16_t packed = in.u16();
    server.country = geo::CountryCode{static_cast<char>(packed >> 8),
                                      static_cast<char>(packed & 0xff)};

    classify::ServerMetadata& md = server.metadata;
    md.addr = server.addr;
    if (in.u8() != 0) {
      auto name = dns::DnsName::parse(in.str_view());
      if (!name) return std::nullopt;
      md.hostname = std::move(*name);
    }
    if (in.u8() != 0) {
      auto name = dns::DnsName::parse(in.str_view());
      if (!name) return std::nullopt;
      md.soa_authority = std::move(*name);
    }
    const std::uint32_t uri_count = in.u32();
    md.uris.reserve(reserve_hint(in, uri_count, kMinString));
    for (std::uint32_t j = 0; in.ok() && j < uri_count; ++j) {
      auto uri = dns::Uri::parse(in.str_view());
      if (!uri) return std::nullopt;
      md.uris.push_back(std::move(*uri));
    }
    if (!get_name_list(in, md.cert_names)) return std::nullopt;
    report.servers.push_back(std::move(server));
  }

  report.degraded = in.u8() != 0;
  const std::uint32_t error_count = in.u32();
  report.worker_errors.reserve(
      reserve_hint(in, error_count, kMinWorkerError));
  for (std::uint32_t i = 0; in.ok() && i < error_count; ++i)
    report.worker_errors.push_back(in.u64());

  if (!in.ok() || !in.at_end()) return std::nullopt;
  return report;
}

std::vector<std::byte> SnapshotCodec::encode_provenance(
    const Provenance& provenance) {
  wire::Writer out;
  out.reserve(4 + 4 + 8 + 8);
  out.u32(provenance.format_version);
  out.u32(static_cast<std::uint32_t>(provenance.week));
  out.u64(provenance.model_fingerprint);
  out.u64(provenance.ingest_fingerprint);
  return out.take();
}

std::optional<Provenance> SnapshotCodec::decode_provenance(
    std::span<const std::byte> bytes) {
  wire::Reader in{bytes};
  Provenance provenance;
  provenance.format_version = in.u32();
  provenance.week = static_cast<std::int32_t>(in.u32());
  provenance.model_fingerprint = in.u64();
  provenance.ingest_fingerprint = in.u64();
  if (!in.ok() || !in.at_end()) return std::nullopt;
  return provenance;
}

}  // namespace ixp::store
