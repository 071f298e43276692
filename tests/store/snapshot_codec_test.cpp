// The codec contract (DESIGN.md §13): canonical, byte-stable encoding of
// WeeklyReport and Provenance, and lossless round trips. Decoders are
// strict: truncated or padded bytes never decode, and a damaged count
// fails the decode without throwing.
#include "store/snapshot_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/study.hpp"
#include "dns/name.hpp"
#include "dns/uri.hpp"
#include "store/snapshot_store.hpp"

namespace ixp::store {
namespace {

constexpr int kWeek = 45;

class SnapshotCodecTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    study_ = new analysis::Study{gen::ScaleConfig::test()};
    samples_ = new std::vector<sflow::FlowSample>;
    study_->workload().generate_week(
        kWeek, [](const sflow::FlowSample& s) { samples_->push_back(s); });
  }

  static void TearDownTestSuite() {
    delete samples_;
    delete study_;
  }

  static analysis::Study* study_;
  static std::vector<sflow::FlowSample>* samples_;
};

analysis::Study* SnapshotCodecTest::study_ = nullptr;
std::vector<sflow::FlowSample>* SnapshotCodecTest::samples_ = nullptr;

TEST_F(SnapshotCodecTest, ReportRoundTripIsLosslessAndByteStable) {
  auto vp = study_->vantage();
  core::WeekSession session = vp.open_week(kWeek);
  session.observe_batch(*samples_);
  const core::WeeklyReport report = session.finish(study_->fetcher(kWeek));
  ASSERT_GT(report.server_ips, 0u);
  ASSERT_FALSE(report.servers.empty());

  const auto bytes = SnapshotCodec::encode_report(report);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(SnapshotCodec::encode_report(report), bytes);

  const auto decoded = SnapshotCodec::decode_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->week, report.week);
  EXPECT_EQ(decoded->filters, report.filters);
  EXPECT_EQ(decoded->dissection, report.dissection);
  EXPECT_EQ(decoded->peering_ips, report.peering_ips);
  EXPECT_EQ(decoded->server_ips, report.server_ips);
  EXPECT_EQ(decoded->by_country, report.by_country);
  EXPECT_EQ(decoded->by_as, report.by_as);
  ASSERT_EQ(decoded->servers.size(), report.servers.size());
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    EXPECT_EQ(decoded->servers[i].addr, report.servers[i].addr);
    EXPECT_EQ(decoded->servers[i].bytes, report.servers[i].bytes);
    EXPECT_EQ(decoded->servers[i].country, report.servers[i].country);
  }
  // Full-fidelity check in one stroke: the decoded report re-encodes to
  // the same bytes, so every encoded field survived.
  EXPECT_EQ(SnapshotCodec::encode_report(*decoded), bytes);
}

TEST_F(SnapshotCodecTest, LocalityCountsSurviveTheRoundTrip) {
  auto vp = study_->vantage();
  core::WeekSession session = vp.open_week(kWeek);
  session.observe_batch(*samples_);
  core::WeeklyReport report = session.finish(study_->fetcher(kWeek));
  std::size_t peering_prefixes = 0;
  std::size_t peering_ases = 0;
  for (const core::LocalityTally& tally : report.peering_locality) {
    peering_prefixes += tally.prefixes;
    peering_ases += tally.ases;
  }
  // Each distinct prefix and origin AS has exactly one locality.
  EXPECT_EQ(peering_prefixes, report.peering_prefixes);
  EXPECT_EQ(peering_ases, report.peering_ases);
  ASSERT_GT(report.server_locality[0].prefixes, 0u);
  ASSERT_GT(report.server_locality[0].ases, 0u);
  // Counts wider than 32 bits keep every bit.
  report.server_locality[2].prefixes = (std::size_t{1} << 40) + 3;
  report.server_locality[2].ases = (std::size_t{1} << 33) + 5;

  const auto decoded =
      SnapshotCodec::decode_report(SnapshotCodec::encode_report(report));
  ASSERT_TRUE(decoded.has_value());
  for (int li = 0; li < 3; ++li) {
    SCOPED_TRACE("locality " + std::to_string(li));
    EXPECT_EQ(decoded->peering_locality[li], report.peering_locality[li]);
    EXPECT_EQ(decoded->server_locality[li], report.server_locality[li]);
  }
}

TEST_F(SnapshotCodecTest, DegradedFlagAndWorkerErrorsSurviveTheRoundTrip) {
  auto vp = study_->vantage();
  core::WeekSession session = vp.open_week(kWeek);
  session.observe_batch(*samples_);
  core::WeeklyReport report = session.finish(study_->fetcher(kWeek));
  report.degraded = true;
  report.worker_errors = {0, 3, 1};

  const auto bytes = SnapshotCodec::encode_report(report);
  const auto decoded = SnapshotCodec::decode_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->degraded);
  EXPECT_EQ(decoded->worker_errors, report.worker_errors);
}

/// A few servers of `report`, between them carrying every optional part
/// of a server record, plus a few country and AS tallies and worker
/// errors: every field kind of the report encoding in ~2 KB, small enough
/// to decode once per byte offset.
core::WeeklyReport every_field_kind(const core::WeeklyReport& report) {
  core::WeeklyReport out = report;
  out.servers.clear();
  const auto take_first = [&](auto&& has) {
    const auto it = std::find_if(report.servers.begin(), report.servers.end(),
                                 has);
    if (it != report.servers.end()) out.servers.push_back(*it);
  };
  take_first([](const auto& s) { return s.metadata.hostname.has_value(); });
  take_first([](const auto& s) { return s.metadata.soa_authority.has_value(); });
  take_first([](const auto& s) { return !s.metadata.uris.empty(); });
  take_first([](const auto& s) { return !s.metadata.cert_names.empty(); });
  take_first([](const auto& s) { return s.asn.has_value(); });
  std::sort(out.servers.begin(), out.servers.end(),
            [](const auto& a, const auto& b) { return a.addr < b.addr; });
  out.servers.erase(
      std::unique(out.servers.begin(), out.servers.end(),
                  [](const auto& a, const auto& b) { return a.addr == b.addr; }),
      out.servers.end());
  out.by_country.clear();
  for (const auto& [code, tally] : report.by_country) {
    if (out.by_country.size() == 3) break;
    out.by_country.try_emplace(code, tally);
  }
  out.by_as.clear();
  for (const auto& [asn, tally] : report.by_as) {
    if (out.by_as.size() == 3) break;
    out.by_as.try_emplace(asn, tally);
  }
  out.degraded = true;
  out.worker_errors = {2, 0, 5};
  return out;
}

TEST_F(SnapshotCodecTest, StrictDecodersRejectTruncationAndPadding) {
  auto vp = study_->vantage();
  core::WeekSession full = vp.open_week(kWeek);
  full.observe_batch(*samples_);
  const core::WeeklyReport report =
      every_field_kind(full.finish(study_->fetcher(kWeek)));
  ASSERT_GE(report.servers.size(), 2u);
  const auto report_bytes = SnapshotCodec::encode_report(report);
  ASSERT_TRUE(SnapshotCodec::decode_report(report_bytes).has_value());

  // Whole fields are read at once, so an underrun can land mid-field at
  // any byte: every strict prefix must fail, at every field boundary and
  // between them.
  for (std::size_t cut = 0; cut < report_bytes.size(); ++cut) {
    const auto prefix = std::span{report_bytes}.first(cut);
    EXPECT_FALSE(SnapshotCodec::decode_report(prefix).has_value())
        << "report cut at " << cut << " of " << report_bytes.size();
  }

  auto padded_report = report_bytes;
  padded_report.push_back(std::byte{0});
  EXPECT_FALSE(SnapshotCodec::decode_report(padded_report).has_value());
}

TEST_F(SnapshotCodecTest, HugeCountsFailTheDecodeWithoutThrowing) {
  // One record behind every count field of the report encoding.
  core::WeeklyReport report;
  report.week = kWeek;
  report.by_country.try_emplace(geo::CountryCode{'D', 'E'},
                                core::CountryTally{});
  report.by_as.try_emplace(net::Asn{64500}, core::AsTally{});
  core::ServerObservation server;
  server.addr = net::Ipv4Addr{0x0a000001u};
  server.metadata.uris.push_back(*dns::Uri::parse("http://www.example.com/"));
  server.metadata.cert_names.push_back(*dns::DnsName::parse("example.com"));
  report.servers.push_back(server);
  report.degraded = true;
  report.worker_errors = {7};
  const auto bytes = SnapshotCodec::encode_report(report);
  ASSERT_TRUE(SnapshotCodec::decode_report(bytes).has_value());

  // Offsets from the end of the encoding: degraded (1), the error count
  // and one error (4 + 8); the server's cert-name and URI lists, each a
  // count and one string; the server's fixed fields before its URI count
  // (22 with no hostname or authority); the server count; six locality
  // tallies (32 each); the AS and country tables, one entry each.
  const std::size_t cert_bytes = 4 + server.metadata.cert_names[0].text().size();
  const std::size_t uri_bytes = 4 + server.metadata.uris[0].to_string().size();
  const std::size_t errors = bytes.size() - 8 - 4;
  const std::size_t certs = errors - 1 - cert_bytes - 4;
  const std::size_t uris = certs - uri_bytes - 4;
  const std::size_t servers = uris - 22 - 4;
  const std::size_t ases = servers - 6 * 32 - 36 - 4;
  const std::size_t countries = ases - 34 - 4;
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::to_integer<std::uint32_t>(bytes[at + i]) << (8 * i);
    return v;
  };
  const std::pair<const char*, std::size_t> fields[] = {
      {"countries", countries}, {"ases", ases}, {"servers", servers},
      {"uris", uris},           {"certs", certs}, {"errors", errors},
  };
  for (const auto& [name, at] : fields) {
    SCOPED_TRACE(name);
    ASSERT_EQ(u32_at(at), 1u);
    auto patched = bytes;
    for (int i = 0; i < 4; ++i) patched[at + i] = std::byte{0xff};
    std::optional<core::WeeklyReport> decoded;
    EXPECT_NO_THROW(decoded = SnapshotCodec::decode_report(patched));
    EXPECT_FALSE(decoded.has_value());
  }
}

TEST(ProvenanceCodec, RoundTripPreservesEveryField) {
  Provenance provenance;
  provenance.format_version = kFormatVersion;
  provenance.week = 45;
  provenance.model_fingerprint = 0xdead'beef'cafe'f00dull;
  provenance.ingest_fingerprint = 0x0123'4567'89ab'cdefull;

  const auto bytes = SnapshotCodec::encode_provenance(provenance);
  const auto decoded = SnapshotCodec::decode_provenance(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, provenance);

  // Byte-stable: re-encoding the decoded record reproduces the bytes.
  EXPECT_EQ(SnapshotCodec::encode_provenance(*decoded), bytes);
}

TEST(ProvenanceCodec, StrictDecodeRejectsDamage) {
  Provenance provenance;
  provenance.format_version = kFormatVersion;
  provenance.week = 45;
  const auto bytes = SnapshotCodec::encode_provenance(provenance);

  auto truncated = bytes;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(SnapshotCodec::decode_provenance(truncated).has_value());

  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(SnapshotCodec::decode_provenance(padded).has_value());

  EXPECT_FALSE(SnapshotCodec::decode_provenance({}).has_value());
}

TEST(ProvenanceCodec, CombinedFingerprintSeparatesEveryField) {
  // combined() must react to each field independently — a fingerprint
  // that aliases one field's change with another's would let a stale
  // snapshot masquerade as fresh.
  const Provenance base{kFormatVersion, 45, 7, 9};
  std::vector<Provenance> variants{base};
  for (int field = 0; field < 4; ++field) {
    Provenance p = base;
    if (field == 0) p.format_version += 1;
    if (field == 1) p.week += 1;
    if (field == 2) p.model_fingerprint += 1;
    if (field == 3) p.ingest_fingerprint += 1;
    variants.push_back(p);
  }
  std::vector<std::uint64_t> hashes;
  for (const auto& p : variants) hashes.push_back(p.combined());
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

}  // namespace
}  // namespace ixp::store
