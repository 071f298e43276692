// CRC-32C (Castagnoli) — the per-section checksum of the snapshot store.
//
// The snapshot format (snapshot_store.hpp) seals every section payload
// with a CRC so a single flipped bit anywhere in the file is caught at
// open time, before any decoding runs. CRC-32C is the iSCSI/ext4
// polynomial (0x1EDC6F41, reflected 0x82F63B78): better error-detection
// spectrum than CRC-32/zlib at the same cost, and the value every
// storage-layer tool agrees on.
//
// Two implementations compute the same function. On x86-64 CPUs with
// SSE4.2 (checked once per process with __builtin_cpu_supports) crc32c()
// runs the `crc32` instruction over 8-byte words; everywhere else it runs
// a portable slicing-by-eight table walk. The table walk is also public
// as crc32c_table(), the oracle the hardware path is tested against:
// both give identical output on every platform, because determinism is
// part of the format contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ixp::store {

/// CRC-32C over `data`, continuing from `crc` (pass the previous return
/// value to checksum a buffer in pieces; 0 starts a fresh checksum).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t crc = 0) noexcept;

/// The same function by the slicing-by-eight table walk alone, whatever
/// the CPU. Not counted by crc32c_bytes().
[[nodiscard]] std::uint32_t crc32c_table(std::span<const std::byte> data,
                                         std::uint32_t crc = 0) noexcept;

/// True when crc32c() uses the SSE4.2 instruction on this CPU.
[[nodiscard]] bool crc32c_hardware() noexcept;

/// Bytes crc32c() has checksummed in this process so far, whichever path
/// ran: the tests read it to hold the store to one CRC pass per snapshot
/// and resume.
[[nodiscard]] std::uint64_t crc32c_bytes() noexcept;

}  // namespace ixp::store
