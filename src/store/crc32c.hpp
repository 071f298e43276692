// CRC-32C (Castagnoli) — the per-section checksum of the snapshot store.
//
// The snapshot format (snapshot_store.hpp) seals every section payload
// with a CRC so a single flipped bit anywhere in the file is caught at
// open time, before any decoding runs. CRC-32C is the iSCSI/ext4
// polynomial (0x1EDC6F41, reflected 0x82F63B78): better error-detection
// spectrum than CRC-32/zlib at the same cost, and the value every
// storage-layer tool agrees on. The implementation is a software
// slicing-by-eight table walk — no intrinsics, no dependencies, identical
// output on every platform (determinism is part of the format contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ixp::store {

/// CRC-32C over `data`, continuing from `crc` (pass the previous return
/// value to checksum a buffer in pieces; 0 starts a fresh checksum).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t crc = 0) noexcept;

/// Bytes crc32c() has checksummed in this process so far: the tests read
/// it to hold the store to one CRC pass per snapshot and resume.
[[nodiscard]] std::uint64_t crc32c_bytes() noexcept;

}  // namespace ixp::store
