#include "support/store_fault.hpp"

#include "sflow/fault_injector.hpp"

namespace ixp::store {

const char* crash_point_name(CrashPoint point) noexcept {
  switch (point) {
    case CrashPoint::kMidTempWrite: return "mid-temp-write";
    case CrashPoint::kAfterTempWrite: return "after-temp-write";
    case CrashPoint::kAfterTempSync: return "after-temp-sync";
    case CrashPoint::kAfterRename: return "after-rename";
  }
  return "unknown";
}

const char* storage_fault_name(StorageFault fault) noexcept {
  switch (fault) {
    case StorageFault::kTornTail: return "torn-tail";
    case StorageFault::kMidTruncation: return "mid-truncation";
    case StorageFault::kHeaderBitFlip: return "header-bit-flip";
    case StorageFault::kSectionBitFlip: return "section-bit-flip";
    case StorageFault::kCrcFieldBitFlip: return "crc-field-bit-flip";
    case StorageFault::kDuplicatedFooter: return "duplicated-footer";
  }
  return "unknown";
}

void StoreFaultInjector::apply(StorageFault fault,
                               std::vector<std::byte>& image) {
  using sflow::FaultInjector;
  switch (fault) {
    case StorageFault::kTornTail: {
      // Lose 1..24 final bytes: the seal is gone or partial.
      if (image.size() <= kSnapshotFooterBytes) return;
      const std::size_t lost =
          1 + static_cast<std::size_t>(rng_.next_below(kSnapshotFooterBytes));
      FaultInjector::truncate_blob(image, image.size() - lost);
      return;
    }
    case StorageFault::kMidTruncation:
      FaultInjector::truncate_blob(
          image, static_cast<std::size_t>(rng_.next_below(image.size() / 2)));
      return;
    case StorageFault::kHeaderBitFlip:
      FaultInjector::flip_bit_in(image, 0, kSnapshotHeaderBytes, rng_);
      return;
    case StorageFault::kSectionBitFlip: {
      const std::size_t framing = kSnapshotHeaderBytes + kSnapshotFooterBytes;
      if (image.size() <= framing) return;
      FaultInjector::flip_bit_in(image, kSnapshotHeaderBytes,
                                 image.size() - framing, rng_);
      return;
    }
    case StorageFault::kCrcFieldBitFlip:
      // The first section's stored CRC word (offset 4 in its 16-byte
      // record): the payload is intact but no longer vouched for.
      FaultInjector::flip_bit_in(image, kSnapshotHeaderBytes + 4, 4, rng_);
      return;
    case StorageFault::kDuplicatedFooter:
      FaultInjector::duplicate_tail(image, kSnapshotFooterBytes);
      return;
  }
}

CommitHooks StoreFaultInjector::crash_at(CrashPoint point) {
  CommitHooks hooks;
  const auto die = [point](const std::string&) {
    throw InjectedCrash{crash_point_name(point)};
  };
  switch (point) {
    case CrashPoint::kMidTempWrite: hooks.mid_temp_write = die; break;
    case CrashPoint::kAfterTempWrite: hooks.after_temp_write = die; break;
    case CrashPoint::kAfterTempSync: hooks.after_temp_sync = die; break;
    case CrashPoint::kAfterRename: hooks.after_rename = die; break;
  }
  return hooks;
}

}  // namespace ixp::store
