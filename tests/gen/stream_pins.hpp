// The pinned hashes of the generated stream, shared by the generator's
// byte-identity test (Workload.StreamBytesPinned) and the concurrency
// tests that hold the threaded generator to the same bytes.
#pragma once

#include <cstdint>
#include <string_view>

#include "gen/workload.hpp"
#include "util/fnv.hpp"

namespace ixp::gen {

/// FNV-1a over every emitted sample's wire fields, in stream order.
inline std::uint64_t stream_hash(const Workload& w, int week) {
  util::Fnv1a hash;
  (void)w.generate_week(week, [&](const sflow::FlowSample& s) {
    hash.mix(std::uint64_t{s.sequence});
    hash.mix(std::uint64_t{s.source_port});
    hash.mix(std::uint64_t{s.sampling_rate});
    hash.mix(std::uint64_t{s.frame.frame_length});
    hash.mix(std::uint64_t{s.frame.captured});
    const auto bytes = s.frame.bytes();
    hash.mix(std::string_view{reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()});
  });
  return hash.value();
}

/// stream_hash of a test-scale (ScaleConfig::test()) week at a seed.
struct StreamPin {
  std::uint64_t seed;
  int week;
  std::uint64_t hash;
};

inline constexpr StreamPin kStreamPins[] = {
    {1, 35, 0x6546c1be017471b2ull}, {1, 45, 0x67cda3ea849489e8ull},
    {1, 51, 0x8b2c38c0de235812ull}, {7, 35, 0x784e0b20bdd4c29bull},
    {7, 45, 0x0a31c845a93afea5ull}, {7, 51, 0x1483e65c5377c069ull},
};

}  // namespace ixp::gen
