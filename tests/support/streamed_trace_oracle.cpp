#include "support/streamed_trace_oracle.hpp"

#include <array>
#include <cstring>
#include <optional>

namespace ixp::sflow {

namespace {

std::uint32_t be32(const char* bytes) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3]));
}

std::optional<std::uint32_t> get_u32(std::istream& in) {
  std::array<char, 4> bytes{};
  if (!in.read(bytes.data(), bytes.size())) return std::nullopt;
  return be32(bytes.data());
}

}  // namespace

StreamedTraceOracle::StreamedTraceOracle(std::istream& in, ReadPolicy policy)
    : in_(&in), policy_(policy) {
  char magic[sizeof kTraceMagic] = {};
  if (!in_->read(magic, sizeof magic) ||
      std::memcmp(magic, kTraceMagic, sizeof magic) != 0)
    return;
  const auto version = get_u32(*in_);
  if (!version || *version != kTraceVersion) return;
  pos_ = kTraceHeaderBytes;
  ok_ = true;
}

bool StreamedTraceOracle::spend_error() {
  if (stats_.errors() > policy_.max_errors) {
    ok_ = false;
    return false;
  }
  return true;
}

// Scans forward from the byte after `bad_record_start` for the next
// offset where a plausible record begins: a length prefix in
// [kMinDatagramBytes, kMaxDatagramBytes] whose payload starts with the
// sFlow version word and decodes cleanly. On success the stream is
// repositioned at that offset and the skipped gap is accounted; on EOF
// everything from the bad record to the end of input is skipped.
bool StreamedTraceOracle::resync(std::uint64_t bad_record_start) {
  std::uint64_t candidate = bad_record_start + 1;
  while (true) {
    in_->clear();
    in_->seekg(static_cast<std::streamoff>(candidate));
    char head[8];
    in_->read(head, sizeof head);
    const auto got = static_cast<std::uint64_t>(in_->gcount());
    if (got < sizeof head) {
      // Fewer than 8 bytes remain: no record fits here or anywhere later.
      stats_.bytes_skipped += candidate + got - bad_record_start;
      pos_ = candidate + got;
      return false;
    }
    const std::uint32_t length = be32(head);
    if (length >= kMinDatagramBytes && length <= kMaxDatagramBytes &&
        be32(head + 4) == Datagram::kVersion) {
      scratch_.assign(length, std::byte{});
      in_->clear();
      in_->seekg(static_cast<std::streamoff>(candidate + 4));
      in_->read(reinterpret_cast<char*>(scratch_.data()),
                static_cast<std::streamsize>(length));
      if (static_cast<std::uint32_t>(in_->gcount()) == length &&
          decode_into(scratch_, probe_)) {
        stats_.bytes_skipped += candidate - bad_record_start;
        ++stats_.resyncs;
        in_->clear();
        in_->seekg(static_cast<std::streamoff>(candidate));
        pos_ = candidate;
        return true;
      }
    }
    ++candidate;
  }
}

bool StreamedTraceOracle::refill() {
  while (ok_) {
    const std::uint64_t record_start = pos_;
    char len_bytes[4];
    in_->read(len_bytes, sizeof len_bytes);
    const auto got = static_cast<std::uint64_t>(in_->gcount());
    pos_ += got;
    if (got == 0) return false;  // clean end of trace

    if (got < sizeof len_bytes) {
      ++stats_.truncated;  // EOF inside the length prefix
    } else {
      const std::uint32_t length = be32(len_bytes);
      if (length < kMinDatagramBytes || length > kMaxDatagramBytes) {
        ++stats_.bad_length;
      } else {
        scratch_.resize(length);
        in_->read(reinterpret_cast<char*>(scratch_.data()),
                  static_cast<std::streamsize>(length));
        const auto body = static_cast<std::uint64_t>(in_->gcount());
        pos_ += body;
        if (body < length) {
          ++stats_.truncated;  // EOF inside the payload
        } else if (decode_into(scratch_, current_)) {
          cursor_ = 0;
          current_offset_ = record_start;
          ++stats_.datagrams;
          stats_.samples += current_.samples.size();
          stats_.bytes_delivered += sizeof len_bytes + length;
          if (current_.samples.empty()) continue;  // valid, nothing to deliver
          return true;
        } else {
          ++stats_.decode_errors;
        }
      }
    }

    // A corrupt record starts at record_start. Give up if the budget is
    // spent (strict mode: immediately), otherwise scan past the damage.
    if (!spend_error()) return false;
    if (!resync(record_start)) return false;  // scanned to end of input
  }
  return false;
}

std::size_t StreamedTraceOracle::read_record(std::vector<FlowSample>& out,
                                             std::uint64_t& seq_base) {
  out.clear();
  if (cursor_ >= current_.samples.size() && !refill()) return 0;
  seq_base = stream_seq_key(current_offset_, cursor_);
  while (cursor_ < current_.samples.size()) {
    out.push_back(std::move(current_.samples[cursor_++]));
  }
  return out.size();
}

}  // namespace ixp::sflow
