#include "probe/sweeps.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "util/flat_hash_map.hpp"
#include "util/rng.hpp"

namespace ixp::probe {

namespace {

/// Stability-sweep timestamps, identical to the synchronous prober's.
std::vector<x509::Timestamp> sweep_times(std::size_t fetches) {
  std::vector<x509::Timestamp> times;
  times.reserve(fetches);
  for (std::size_t i = 0; i < fetches; ++i)
    times.push_back(static_cast<x509::Timestamp>(100 + 50 * i));
  return times;
}

class ResolverHandler final : public ProbeHandler {
 public:
  ResolverHandler(std::span<const dns::Resolver> candidates,
                  CachingResolver& resolver, const dns::DnsName& probe_name,
                  std::vector<std::uint8_t>& usable)
      : candidates_(candidates),
        resolver_(resolver),
        probe_name_(probe_name),
        usable_(usable) {}

  [[nodiscard]] std::uint64_t item_key(std::uint32_t item) const override {
    return candidates_[item].address.value();
  }

  bool exchange_answers(std::uint32_t item, std::uint32_t) override {
    return candidates_[item].behavior != dns::ResolverBehavior::kClosed;
  }

  Step on_response(std::uint32_t item, std::uint32_t,
                   std::uint64_t now_us) override {
    switch (candidates_[item].behavior) {
      case dns::ResolverBehavior::kOpen:
        usable_[item] = resolver_.resolve(probe_name_, now_us).empty() ? 0 : 1;
        break;
      case dns::ResolverBehavior::kDelegating:
        // The sync probe still checks the answer; delegation alone
        // disqualifies, but the lookup keeps cache accounting aligned.
        (void)resolver_.resolve(probe_name_, now_us);
        break;
      case dns::ResolverBehavior::kLying:
      case dns::ResolverBehavior::kClosed:
        break;
    }
    return Step::kDone;
  }

  Step on_timeout(std::uint32_t, std::uint32_t, std::uint64_t) override {
    return Step::kAbort;
  }

 private:
  std::span<const dns::Resolver> candidates_;
  CachingResolver& resolver_;
  const dns::DnsName& probe_name_;
  std::vector<std::uint8_t>& usable_;
};

class SourceSweepHandler final : public ProbeHandler {
 public:
  SourceSweepHandler(std::span<const net::Ipv4Addr> candidates,
                     const HttpsSweep::ChainSource& source,
                     const x509::ChainValidator& validator, int fetches,
                     classify::ProbeFunnel& funnel,
                     std::vector<std::uint8_t>& confirmed)
      : candidates_(candidates),
        source_(source),
        validator_(validator),
        fetches_(fetches),
        funnel_(funnel),
        confirmed_(confirmed),
        times_(sweep_times(static_cast<std::size_t>(fetches))) {}

  [[nodiscard]] std::uint64_t item_key(std::uint32_t item) const override {
    return candidates_[item].value();
  }

  bool exchange_answers(std::uint32_t item, std::uint32_t exchange) override {
    if (exchange == 0) {
      // Probe liveness against a spare scratch before materializing any
      // per-item state: ~2/3 of the candidate population is dead, and a
      // map insert + erase per dead item would dominate the sweep.
      const x509::CertificateChain* got =
          source_(candidates_[item], 0, spare_);
      if (got == nullptr) return false;
      ItemState& state = state_[item];
      if (got == &spare_) {
        state.scratch[0] = std::move(spare_);
        got = &state.scratch[0];
        state.scratch_used = true;
      }
      state.got[0] = got;
      return true;
    }
    // Exchange 0 answered, so the state exists.
    ItemState& state = state_.at(item);
    state.got[exchange] =
        source_(candidates_[item], static_cast<int>(exchange),
                state.scratch[exchange]);
    if (state.got[exchange] == &state.scratch[exchange])
      state.scratch_used = true;
    return state.got[exchange] != nullptr;
  }

  Step on_response(std::uint32_t item, std::uint32_t exchange,
                   std::uint64_t) override {
    if (exchange + 1 < static_cast<std::uint32_t>(fetches_))
      return Step::kNextExchange;
    // Every fetch answered: the item is a responder; judge stability on
    // the collected pointers (aliased entries skip re-validation).
    ++funnel_.responded;
    const ItemState& state = state_.at(item);
    const std::span<const x509::CertificateChain* const> fetched{
        state.got.data(), static_cast<std::size_t>(fetches_)};
    bool ok;
    if (state.scratch_used) {
      ok = validator_.validate_stable(fetched, times_).ok;
    } else {
      // Verdict memo: non-scratch pointers alias run-stable storage, so
      // the same fetch tuple always validates the same way. Hosting farms
      // serve a few thousand distinct chains across hundreds of thousands
      // of servers; each tuple is judged once.
      const auto [it, inserted] = verdicts_.try_emplace(state.got, false);
      if (inserted) it->second = validator_.validate_stable(fetched, times_).ok;
      ok = it->second;
    }
    if (ok) {
      ++funnel_.confirmed;
      confirmed_[item] = 1;
    }
    return Step::kDone;
  }

  Step on_timeout(std::uint32_t, std::uint32_t exchange,
                  std::uint64_t) override {
    // An exchange-0 timeout is the liveness early-exit (dead candidates
    // under a lossless model take the engine's synchronous fast path).
    if (exchange == 0) ++funnel_.early_exits;
    return Step::kAbort;
  }

  void on_outcome(std::uint32_t item, Outcome, std::uint64_t) override {
    state_.erase(item);
  }

 private:
  struct ItemState {
    std::array<const x509::CertificateChain*, HttpsSweep::kMaxFetches> got{};
    std::array<x509::CertificateChain, HttpsSweep::kMaxFetches> scratch;
    bool scratch_used = false;  // any got[] aliases scratch[] (item-local)
  };

  using PtrTuple =
      std::array<const x509::CertificateChain*, HttpsSweep::kMaxFetches>;
  struct PtrTupleHash {
    std::size_t operator()(const PtrTuple& key) const noexcept {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (const auto* p : key)
        h = util::mix64(h ^ reinterpret_cast<std::uintptr_t>(p));
      return static_cast<std::size_t>(h);
    }
  };

  std::span<const net::Ipv4Addr> candidates_;
  const HttpsSweep::ChainSource& source_;
  const x509::ChainValidator& validator_;
  int fetches_;
  classify::ProbeFunnel& funnel_;
  std::vector<std::uint8_t>& confirmed_;
  std::vector<x509::Timestamp> times_;
  // node-stable: got[] may point into scratch[], so entries must not move
  // when the table grows or a finished item is erased.
  std::unordered_map<std::uint32_t, ItemState> state_;
  x509::CertificateChain spare_;  // liveness-probe scratch for exchange 0
  util::FlatHashMap<PtrTuple, bool, PtrTupleHash> verdicts_;
};

/// A confirmed item's index and the first chain its full sweep fetched.
using FirstChain = std::pair<std::uint32_t, x509::CertificateChain>;

class FetcherSweepHandler final : public ProbeHandler {
 public:
  FetcherSweepHandler(std::span<const net::Ipv4Addr> candidates,
                      const classify::ChainFetcher& fetch,
                      const x509::ChainValidator& validator, int fetches,
                      classify::ProbeFunnel& funnel,
                      std::vector<std::uint8_t>& confirmed,
                      std::vector<FirstChain>& first_chains)
      : candidates_(candidates),
        fetch_(fetch),
        validator_(validator),
        fetches_(fetches),
        funnel_(funnel),
        confirmed_(confirmed),
        first_chains_(first_chains),
        times_(sweep_times(static_cast<std::size_t>(fetches))) {}

  [[nodiscard]] std::uint64_t item_key(std::uint32_t item) const override {
    return candidates_[item].value();
  }

  bool exchange_answers(std::uint32_t item, std::uint32_t exchange) override {
    // Exchange 0 is the liveness probe; its chains are discarded so the
    // verdict cannot depend on whether the short-circuit ran (flaky
    // fetchers may answer differently per call). With fetches_ == 1 the
    // single fetch is both liveness and sweep, exactly like the sync path.
    if (fetches_ > 1 && exchange == 0) return !fetch_(candidates_[item], 1).empty();
    ItemState& state = state_[item];
    state.full = fetch_(candidates_[item], fetches_);
    return !state.full.empty();
  }

  Step on_response(std::uint32_t item, std::uint32_t exchange,
                   std::uint64_t) override {
    if (fetches_ > 1 && exchange == 0) return Step::kNextExchange;
    ++funnel_.responded;
    ItemState& state = state_.at(item);
    if (validator_.validate_stable(state.full, times_).ok) {
      ++funnel_.confirmed;
      confirmed_[item] = 1;
      // The state is erased on the outcome, so the first chain moves out.
      first_chains_.emplace_back(item, std::move(state.full.front()));
    }
    return Step::kDone;
  }

  Step on_timeout(std::uint32_t item, std::uint32_t exchange,
                  std::uint64_t) override {
    if (exchange == 0) {
      ++funnel_.early_exits;
      return Step::kAbort;
    }
    // Vanished mid-probe (liveness answered, full sweep empty): the sync
    // funnel drops these silently — complete without counting a response.
    const auto it = state_.find(item);
    if (it == state_.end() || it->second.full.empty()) return Step::kDone;
    return Step::kAbort;  // non-empty sweep, every attempt lost
  }

  void on_outcome(std::uint32_t item, Outcome, std::uint64_t) override {
    state_.erase(item);
  }

 private:
  struct ItemState {
    std::vector<x509::CertificateChain> full;
  };

  std::span<const net::Ipv4Addr> candidates_;
  const classify::ChainFetcher& fetch_;
  const x509::ChainValidator& validator_;
  int fetches_;
  classify::ProbeFunnel& funnel_;
  std::vector<std::uint8_t>& confirmed_;
  std::vector<FirstChain>& first_chains_;
  std::vector<x509::Timestamp> times_;
  std::unordered_map<std::uint32_t, ItemState> state_;
};

std::vector<net::Ipv4Addr> in_candidate_order(
    std::span<const net::Ipv4Addr> candidates,
    const std::vector<std::uint8_t>& confirmed) {
  std::vector<net::Ipv4Addr> out;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (confirmed[i]) out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace

ResolverSweepResult ResolverSweep::run(
    std::span<const dns::Resolver> candidates, const dns::ZoneDatabase& db,
    const dns::DnsName& probe_name,
    CachingResolver::Options cache_options) const {
  ResolverSweepResult result;
  CachingResolver resolver(db, cache_options);
  std::vector<std::uint8_t> usable(candidates.size(), 0);
  ResolverHandler handler(candidates, resolver, probe_name, usable);
  ProbeEngine engine(config_, model_);
  result.engine =
      engine.run(static_cast<std::uint32_t>(candidates.size()), handler);
  result.cache = resolver.stats();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (usable[i]) result.usable.push_back(candidates[i]);
  }
  return result;
}

HttpsSweepResult HttpsSweep::run(std::span<const net::Ipv4Addr> candidates,
                                 const ChainSource& source) {
  HttpsSweepResult result;
  result.funnel.candidates = candidates.size();
  x509::DomainCache domain_cache;
  validator_.set_domain_cache(&domain_cache);
  std::vector<std::uint8_t> confirmed(candidates.size(), 0);
  SourceSweepHandler handler(candidates, source, validator_, fetches_,
                             result.funnel, confirmed);
  ProbeEngine engine(config_, model_);
  result.engine =
      engine.run(static_cast<std::uint32_t>(candidates.size()), handler);
  validator_.set_domain_cache(nullptr);
  result.domain_cache_hits = domain_cache.hits();
  result.domain_cache_misses = domain_cache.misses();
  result.confirmed = in_candidate_order(candidates, confirmed);
  return result;
}

HttpsSweepResult HttpsSweep::run_with_fetcher(
    std::span<const net::Ipv4Addr> candidates,
    const classify::ChainFetcher& fetch) {
  HttpsSweepResult result;
  result.funnel.candidates = candidates.size();
  x509::DomainCache domain_cache;
  validator_.set_domain_cache(&domain_cache);
  std::vector<std::uint8_t> confirmed(candidates.size(), 0);
  std::vector<FirstChain> first_chains;
  FetcherSweepHandler handler(candidates, fetch, validator_, fetches_,
                              result.funnel, confirmed, first_chains);
  ProbeEngine engine(config_, model_);
  result.engine =
      engine.run(static_cast<std::uint32_t>(candidates.size()), handler);
  validator_.set_domain_cache(nullptr);
  result.domain_cache_hits = domain_cache.hits();
  result.domain_cache_misses = domain_cache.misses();
  result.confirmed = in_candidate_order(candidates, confirmed);
  // Items complete in engine order; candidate order pairs them with
  // `confirmed`.
  std::sort(first_chains.begin(), first_chains.end(),
            [](const FirstChain& a, const FirstChain& b) { return a.first < b.first; });
  result.chains.reserve(first_chains.size());
  for (FirstChain& entry : first_chains) result.chains.push_back(std::move(entry.second));
  return result;
}

}  // namespace ixp::probe
