#include "store/provenance.hpp"

#include "util/fnv.hpp"

namespace ixp::store {

std::uint64_t Provenance::combined() const noexcept {
  util::Fnv1a h;
  h.mix(std::uint64_t{format_version});
  h.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(week)));
  h.mix(model_fingerprint);
  h.mix(ingest_fingerprint);
  return h.value();
}

}  // namespace ixp::store
