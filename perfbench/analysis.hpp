// What the benchmark computes from one open-loop phase: latency
// percentiles with their sample counts, the backlog rule and rung verdicts
// of the rate ladder, and the CPU-time attribution. Pure functions, so
// perfbench_tests checks them without a server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// How a scheduled request ended: answered OK; answered shed, expired or
/// cloud-expired; or never sent because the generator gave up on the phase.
enum outcome : int { kOk = 0, kFailed = 1, kUnsent = 2 };

/// The per-request record of one open-loop phase. Times are ms on the
/// generator's clock, from the phase start.
struct phase_samples {
  double rate = 0.0;         // scheduled arrivals per second
  double duration_ms = 0.0;  // length of the arrival schedule
  /// Requests before this index warm the system up to the phase's rate;
  /// latency statistics and rung verdicts start here.
  std::size_t first = 0;
  std::vector<double> sched_ms;     // when the request was due
  std::vector<double> lateness_ms;  // how late the generator sent it
  std::vector<double> service_ms;   // the response's enqueue -> completion
  std::vector<int> status;          // outcome
  std::vector<int> appealed;        // 1 when the cloud answered

  std::size_t size() const { return sched_ms.size(); }
  /// Scheduled send to completion: generator lateness + service time.
  double latency_ms(std::size_t i) const { return lateness_ms[i] + service_ms[i]; }
  double completion_ms(std::size_t i) const {
    return sched_ms[i] + latency_ms(i);
  }
};

/// The seed of one phase of a run: a pure function of the run's seed and
/// the phase's slot (its place in the run's plan), so a phase measured
/// again replays the same arrival schedule.
std::uint64_t slot_seed(std::uint64_t run_seed, std::uint64_t slot);

/// Open-loop (Poisson) arrival times in ms, from 0 up to `length_ms`, at
/// `rate` requests per second: exponential gaps drawn from `seed`.
std::vector<double> poisson_schedule(double rate, double length_ms, std::uint64_t seed);

/// The median (the mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentiles over `samples` values plus `misses` requests
/// that never answered OK, which rank above every value (a miss exceeds
/// any latency limit). A percentile that lands on a miss is +infinity.
struct percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;      // values + misses
  std::size_t beyond_p99 = 0;   // samples ranked above the p99
};
percentiles latency_percentiles(std::vector<double> values, std::size_t misses);

/// Which requests of a phase a latency population takes.
enum class population { all, appealed };

/// Percentiles of scheduled-send-to-completion latency, pooled over phases.
percentiles pooled_percentiles(const std::vector<const phase_samples*>& phases,
                               population which);
inline percentiles phase_percentiles(const phase_samples& p, population which) {
  return pooled_percentiles({&p}, which);
}

/// The median of each percentile over blocks of the same rate; samples
/// and beyond_p99 are summed over the blocks.
percentiles median_over_blocks(const std::vector<percentiles>& blocks);

/// Requests sent by `t_ms` and not yet completed at `t_ms` (warm-up
/// requests included); unsent requests count from their scheduled time on,
/// forever.
std::size_t outstanding_at(const phase_samples& p, double t_ms);

struct rung_limits {
  double p99_ms = 0.0;   // latency limit on the p99 of all requests
  double ok_frac = 1.0;  // least share of attempted requests answered OK
};

struct rung_verdict {
  double rate = 0.0;
  percentiles latency;
  double ok_frac = 0.0;
  std::size_t backlog_mid = 0;  // outstanding at half the schedule
  std::size_t backlog_end = 0;  // outstanding when the schedule ends
  bool backlog_growing = false;
  bool pass = false;
};

/// The backlog rule: the backlog grows when, between the middle and the
/// end of the measured schedule, the outstanding count rises by more than the
/// requests in flight at the latency limit (rate x limit, Little's law).
bool backlog_growing(std::size_t mid, std::size_t end, double rate,
                     double p99_limit_ms);

/// A rung passes when its p99 is at or under the limit, its OK share is
/// at least the limit, and its backlog does not grow.
rung_verdict judge_rung(const phase_samples& p, const rung_limits& limits);

/// A rung measured as several blocks at one rate passes when more than half
/// of its blocks pass. Its latency is the median over blocks, its OK share
/// the blocks' median, its backlog the largest.
rung_verdict judge_blocks(const std::vector<const phase_samples*>& blocks,
                          const rung_limits& limits);

/// Outcome of a ladder search.
struct ladder_result {
  long best = -1;  // index of the highest passing rung; -1 when none passed
  std::vector<rung_verdict> verdicts;  // of rungs 0, 1, ... as run, last try
  /// The fixed rate of the highest passing rung; 0 when none passed.
  double max_rate() const;
};

/// Climbs a fixed ladder of ascending rates from its lowest rung:
/// `run(i, attempt)` measures rung i. A rung fails only when `tries`
/// attempts in a row fail (a host stall fails one try, a saturated system
/// every try); the climb ends at the first rung that fails.
ladder_result ladder_search(std::size_t rungs, int tries,
                            const std::function<rung_verdict(std::size_t, int)>& run);

/// Edge CPU per completed request: the process's CPU over the phases less
/// the benchmark's own generator and collector threads.
double edge_cpu_ms_per_request(double process_cpu_ms, double generator_cpu_ms,
                               double collector_cpu_ms, std::size_t completed);

}  // namespace perfbench
