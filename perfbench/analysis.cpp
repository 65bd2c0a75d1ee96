#include "analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 0-based nearest-rank index of quantile q among n ranked samples.
std::size_t rank_index(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

std::uint64_t slot_seed(std::uint64_t run_seed, std::uint64_t slot) {
  return appeal::util::mix64(appeal::util::mix64(run_seed) ^ slot);
}

std::vector<double> poisson_schedule(double rate, double length_ms, std::uint64_t seed) {
  std::vector<double> out;
  appeal::util::rng gen(seed);
  for (double t = -std::log(1.0 - gen.uniform()) / rate * 1e3; t < length_ms;
       t += -std::log(1.0 - gen.uniform()) / rate * 1e3) {
    out.push_back(t);
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

percentiles latency_percentiles(std::vector<double> values, std::size_t misses) {
  percentiles out;
  out.samples = values.size() + misses;
  if (out.samples == 0) return out;
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    const std::size_t i = rank_index(q, out.samples);
    return i < values.size() ? values[i] : kInf;
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  out.beyond_p99 = out.samples - 1 - rank_index(0.99, out.samples);
  return out;
}

percentiles pooled_percentiles(const std::vector<const phase_samples*>& phases,
                               population which) {
  std::vector<double> values;
  std::size_t misses = 0;
  for (const phase_samples* p : phases) {
    for (std::size_t i = p->first; i < p->size(); ++i) {
      if (which == population::appealed && p->appealed[i] == 0) continue;
      if (p->status[i] == kOk) {
        values.push_back(p->latency_ms(i));
      } else {
        ++misses;
      }
    }
  }
  return latency_percentiles(std::move(values), misses);
}

percentiles median_over_blocks(const std::vector<percentiles>& blocks) {
  percentiles out;
  if (blocks.empty()) return out;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const percentiles& b : blocks) {
    p50.push_back(b.p50);
    p99.push_back(b.p99);
    out.samples += b.samples;
    out.beyond_p99 += b.beyond_p99;
  }
  out.p50 = median(std::move(p50));
  out.p99 = median(std::move(p99));
  return out;
}

std::size_t outstanding_at(const phase_samples& p, double t_ms) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.status[i] == kUnsent) {
      n += p.sched_ms[i] <= t_ms ? 1 : 0;
      continue;
    }
    const double sent = p.sched_ms[i] + p.lateness_ms[i];
    n += sent <= t_ms && p.completion_ms(i) > t_ms ? 1 : 0;
  }
  return n;
}

bool backlog_growing(std::size_t mid, std::size_t end, double rate,
                     double p99_limit_ms) {
  const double in_flight_at_limit = rate * p99_limit_ms / 1e3;
  return static_cast<double>(end) > static_cast<double>(mid) + in_flight_at_limit;
}

rung_verdict judge_rung(const phase_samples& p, const rung_limits& limits) {
  rung_verdict v;
  v.rate = p.rate;
  v.latency = phase_percentiles(p, population::all);
  std::size_t ok = 0;
  for (std::size_t i = p.first; i < p.size(); ++i) ok += p.status[i] == kOk ? 1 : 0;
  const std::size_t measured = p.size() - std::min(p.first, p.size());
  v.ok_frac = measured == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(measured);
  const double begin_ms = measured == 0 ? 0.0 : p.sched_ms[p.first];
  v.backlog_mid = outstanding_at(p, (begin_ms + p.duration_ms) / 2.0);
  v.backlog_end = outstanding_at(p, p.duration_ms);
  v.backlog_growing =
      backlog_growing(v.backlog_mid, v.backlog_end, p.rate, limits.p99_ms);
  v.pass = measured > 0 && v.latency.p99 <= limits.p99_ms &&
           v.ok_frac >= limits.ok_frac && !v.backlog_growing;
  return v;
}

rung_verdict judge_blocks(const std::vector<const phase_samples*>& blocks,
                          const rung_limits& limits) {
  rung_verdict v;
  if (blocks.empty()) return v;
  std::vector<percentiles> latency;
  std::vector<double> ok_frac;
  std::size_t passed = 0;
  std::size_t growing = 0;
  for (const phase_samples* b : blocks) {
    const rung_verdict one = judge_rung(*b, limits);
    latency.push_back(one.latency);
    ok_frac.push_back(one.ok_frac);
    passed += one.pass ? 1 : 0;
    growing += one.backlog_growing ? 1 : 0;
    v.backlog_mid = std::max(v.backlog_mid, one.backlog_mid);
    v.backlog_end = std::max(v.backlog_end, one.backlog_end);
  }
  v.rate = blocks.front()->rate;
  v.latency = median_over_blocks(latency);
  v.ok_frac = median(std::move(ok_frac));
  v.backlog_growing = 2 * growing > blocks.size();
  v.pass = 2 * passed > blocks.size();
  return v;
}

double ladder_result::max_rate() const {
  return best < 0 ? 0.0 : verdicts[static_cast<std::size_t>(best)].rate;
}

ladder_result ladder_search(std::size_t rungs, int tries,
                            const std::function<rung_verdict(std::size_t, int)>& run) {
  ladder_result out;
  for (std::size_t i = 0; i < rungs; ++i) {
    rung_verdict v = run(i, 0);
    for (int attempt = 1; !v.pass && attempt < tries; ++attempt) v = run(i, attempt);
    out.verdicts.push_back(v);
    if (!v.pass) break;
    out.best = static_cast<long>(i);
  }
  return out;
}

double edge_cpu_ms_per_request(double process_cpu_ms, double generator_cpu_ms,
                               double collector_cpu_ms, std::size_t completed) {
  if (completed == 0) return 0.0;
  return (process_cpu_ms - generator_cpu_ms - collector_cpu_ms) /
         static_cast<double>(completed);
}

}  // namespace perfbench
