// Test oracle: the datagram decoder with one byte-counted capture copy
// per sample, kept out of the shipped libraries. sflow::decode_into
// copies a fixed kCaptureBytes block whenever the datagram holds one, so
// its bytes past `captured` are unspecified; this form copies exactly
// `captured` bytes and leaves the rest of each buffer as it was. Both
// must agree on the verdict, every header field and the first `captured`
// bytes of every capture (tests/sflow/datagram_differential_test.cpp).
#pragma once

#include <cstddef>
#include <span>

#include "sflow/datagram.hpp"

namespace ixp::sflow {

/// decode_into()'s contract, with every capture copied byte-counted.
[[nodiscard]] bool decode_into_counted(std::span<const std::byte> bytes,
                                       Datagram& out);

}  // namespace ixp::sflow
