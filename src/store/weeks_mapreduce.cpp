#include "store/weeks_mapreduce.hpp"

#include <algorithm>

namespace ixp::store {

MapReduceResult run_weeks_mapreduce(
    WeeksRunner& runner, const MapReduceOptions& options,
    const WeeksRunner::SourceFactory& make_source,
    const WeeksRunner::FetcherFactory& make_fetcher) {
  MapReduceResult result;
  const int from = options.weeks.from_week;
  const int to = options.weeks.to_week;
  // A range the fold cannot cover fails here, before any child is forked
  // and commits weeks the parent would then refuse to fold.
  result.error = week_range_error(from, to);
  if (!result.error.empty()) return result;

  // The directory must be usable before any child is forked: failing in
  // N children produces N copies of the same diagnostic and no insight.
  if (std::string error; !runner.store().ensure_dir(&error)) {
    result.store_unreadable = true;
    result.error = error;
    return result;
  }

  const int week_count = to - from + 1;
  const int jobs = std::clamp(options.jobs, 1, week_count);

  if (jobs > 1) {
    const auto job = [&](int worker) -> int {
      // Round-robin deal: worker w computes weeks from+w, from+w+jobs, …
      // Each week is one single-week runner pass into the shared store —
      // the commit is atomic and flock-owned, so workers never tear each
      // other's files and a concurrent scan never sweeps a live temp.
      for (int week = from + worker; week <= to; week += jobs) {
        if (options.before_week) options.before_week(worker, week);
        WeeksOptions one = options.weeks;
        one.from_week = week;
        one.to_week = week;
        const WeeksResult r = runner.run(one, make_source, make_fetcher);
        if (!r.ok) return r.store_unreadable ? 5 : 1;
      }
      return 0;
    };

    const std::vector<core::ProcessStatus> statuses =
        core::ProcessPool::run(jobs, job);

    result.workers.reserve(statuses.size());
    for (const core::ProcessStatus& status : statuses) {
      WorkerOutcome outcome;
      outcome.status = status;
      for (int week = from + status.worker; week <= to; week += jobs)
        outcome.weeks.push_back(week);
      result.worker_failed = result.worker_failed || !outcome.ok();
      result.workers.push_back(std::move(outcome));
    }
  }

  // The reduce: one ordinary full-range pass over the store. Durable
  // weeks (everything healthy workers committed) resume; anything a dead
  // worker left undone is computed right here — recovery is not a special
  // case, it is the resume path.
  result.fold = runner.run(options.weeks, make_source, make_fetcher);
  result.ok = result.fold.ok;
  result.store_unreadable = result.fold.store_unreadable;
  result.error = result.fold.error;
  return result;
}

}  // namespace ixp::store
