// Tests of the benchmark's analysis: percentiles and their sample counts,
// the backlog rule, rung verdicts, the ladder climb and CPU attribution.
//
// Run:  .bench_build/perfbench_tests   (exit code 0 when every check holds)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "analysis.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

/// `n` requests at `rate`/s, evenly spaced, each answered OK after
/// `service(i)` ms; request i appeals when i % 10 == 0.
template <typename F>
phase_samples make_phase(std::size_t n, double rate, F service) {
  phase_samples p;
  p.rate = rate;
  p.duration_ms = static_cast<double>(n) * 1e3 / rate;
  for (std::size_t i = 0; i < n; ++i) {
    p.sched_ms.push_back(static_cast<double>(i) * 1e3 / rate);
    p.lateness_ms.push_back(0.0);
    p.service_ms.push_back(service(i));
    p.status.push_back(kOk);
    p.appealed.push_back(i % 10 == 0 ? 1 : 0);
  }
  return p;
}

void test_percentiles() {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const percentiles p = latency_percentiles(values, 0);
  EXPECT(p.p50 == 500.0);
  EXPECT(p.p99 == 990.0);
  EXPECT(p.samples == 1000);
  EXPECT(p.beyond_p99 == 10);

  // Misses rank above every value: ten of them put the p99 on the
  // largest answered value, eleven put it on a miss.
  values.resize(990);
  EXPECT(latency_percentiles(values, 10).p99 == 990.0);
  values.resize(989);
  EXPECT(std::isinf(latency_percentiles(values, 11).p99));
  EXPECT(latency_percentiles(values, 11).samples == 1000);

  EXPECT(latency_percentiles({}, 0).samples == 0);
}

void test_populations_and_blocks() {
  const phase_samples p =
      make_phase(100, 100.0, [](std::size_t i) { return i % 10 == 0 ? 50.0 : 1.0; });
  EXPECT(phase_percentiles(p, population::all).p50 == 1.0);
  EXPECT(phase_percentiles(p, population::appealed).p50 == 50.0);
  EXPECT(phase_percentiles(p, population::appealed).samples == 10);

  // Warm-up requests stay out of the statistics.
  phase_samples warmed = p;
  warmed.first = 95;
  EXPECT(phase_percentiles(warmed, population::all).samples == 5);

  const phase_samples q = make_phase(100, 100.0, [](std::size_t) { return 3.0; });
  EXPECT(pooled_percentiles({&p, &q}, population::all).samples == 200);

  std::vector<percentiles> blocks(3);
  blocks[0].p99 = 5.0;
  blocks[1].p99 = 100.0;  // one stalled block does not move the median
  blocks[2].p99 = 7.0;
  blocks[0].samples = blocks[1].samples = blocks[2].samples = 1000;
  const percentiles m = median_over_blocks(blocks);
  EXPECT(m.p99 == 7.0);
  EXPECT(m.samples == 3000);
}

void test_backlog_rule() {
  // A server that keeps up: one request in flight at a time.
  const phase_samples steady = make_phase(1000, 1000.0, [](std::size_t) { return 0.5; });
  EXPECT(outstanding_at(steady, 500.2) == 1);
  EXPECT(!backlog_growing(outstanding_at(steady, 500.2), outstanding_at(steady, 1000.0),
                          1000.0, 20.0));

  // A server that serves half the arrival rate: the wait grows by half a
  // millisecond per request, so the backlog at the end is twice the
  // backlog at the middle.
  const phase_samples falling_behind =
      make_phase(1000, 1000.0, [](std::size_t i) { return 0.5 * static_cast<double>(i); });
  const std::size_t mid = outstanding_at(falling_behind, 500.0);
  const std::size_t end = outstanding_at(falling_behind, 1000.0);
  EXPECT(end > mid);
  EXPECT(backlog_growing(mid, end, 1000.0, 20.0));
  // The allowance is the in-flight count at the latency limit.
  EXPECT(!backlog_growing(10, 29, 1000.0, 20.0));
  EXPECT(backlog_growing(10, 31, 1000.0, 20.0));

  // Unsent requests stay outstanding.
  phase_samples unsent = steady;
  unsent.status[999] = kUnsent;
  EXPECT(outstanding_at(unsent, 5000.0) == 1);
}

void test_judge_rung() {
  const rung_limits limits{20.0, 0.999};
  const phase_samples fast = make_phase(2000, 1000.0, [](std::size_t) { return 2.0; });
  const rung_verdict ok = judge_rung(fast, limits);
  EXPECT(ok.pass);
  EXPECT(ok.ok_frac == 1.0);

  const phase_samples slow = make_phase(2000, 1000.0, [](std::size_t i) {
    return i % 50 == 0 ? 40.0 : 2.0;  // 2% of requests over the limit
  });
  EXPECT(!judge_rung(slow, limits).pass);

  phase_samples shed = fast;
  for (std::size_t i = 0; i < 10; ++i) shed.status[i * 100] = kFailed;
  const rung_verdict v = judge_rung(shed, limits);
  EXPECT(v.ok_frac < 0.999);
  EXPECT(!v.pass);

  const phase_samples behind =
      make_phase(2000, 1000.0, [](std::size_t i) { return 0.01 * static_cast<double>(i); });
  const rung_verdict b = judge_rung(behind, rung_limits{5.0, 0.999});
  EXPECT(b.backlog_growing);
  EXPECT(!b.pass);
}

void test_judge_blocks() {
  const rung_limits limits{20.0, 0.999};
  const phase_samples good = make_phase(2000, 1000.0, [](std::size_t) { return 2.0; });
  const phase_samples stalled = make_phase(2000, 1000.0, [](std::size_t) { return 40.0; });
  const rung_verdict one_bad = judge_blocks({&good, &stalled, &good}, limits);
  EXPECT(one_bad.pass);
  EXPECT(one_bad.latency.p99 == 2.0);
  EXPECT(!judge_blocks({&good, &stalled, &stalled}, limits).pass);
  EXPECT(!judge_blocks({&good, &stalled}, limits).pass);  // a tie fails
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_ladder_search() {
  // Rung i runs at 100 * (i + 1) rps; a rung passes below `limit`, and
  // rung `flaky` fails its first two tries only.
  const auto ladder = [](std::size_t limit, std::size_t flaky, std::vector<int>* tries) {
    return [=](std::size_t i, int attempt) {
      tries->push_back(static_cast<int>(i * 10) + attempt);
      rung_verdict v;
      v.rate = 100.0 * static_cast<double>(i + 1);
      v.pass = i < limit && !(i == flaky && attempt < 2);
      return v;
    };
  };
  std::vector<int> tries;
  const ladder_result some = ladder_search(10, 3, ladder(5, 99, &tries));
  EXPECT(some.best == 4);
  EXPECT(some.verdicts.size() == 6);  // stops at the first failure
  EXPECT(some.max_rate() == 500.0);   // the rung's fixed rate
  EXPECT(tries.back() == 52);         // the failing rung was tried three times

  tries.clear();
  const ladder_result all = ladder_search(10, 3, ladder(100, 99, &tries));
  EXPECT(all.best == 9);
  EXPECT(all.verdicts.size() == 10);
  EXPECT(tries.size() == 10);  // passing rungs run once

  // The first rung gets the same tries as the climbed ones.
  tries.clear();
  const ladder_result retried = ladder_search(3, 3, ladder(100, 0, &tries));
  EXPECT(retried.best == 2);
  EXPECT((tries == std::vector<int>{0, 1, 2, 10, 20}));
  tries.clear();
  EXPECT(ladder_search(3, 2, ladder(100, 0, &tries)).best == -1);
  EXPECT((tries == std::vector<int>{0, 1}));

  tries.clear();
  const ladder_result none = ladder_search(10, 3, ladder(0, 99, &tries));
  EXPECT(none.best == -1);
  EXPECT(none.verdicts.size() == 1);
  EXPECT(none.max_rate() == 0.0);
}

void test_schedule_replays() {
  // The same run seed and slot give the same schedule, so a phase measured
  // again replays its requests; other slots or seeds give other schedules.
  const std::vector<double> a = poisson_schedule(500.0, 2000.0, slot_seed(7, 3));
  EXPECT(a == poisson_schedule(500.0, 2000.0, slot_seed(7, 3)));
  EXPECT(a != poisson_schedule(500.0, 2000.0, slot_seed(7, 4)));
  EXPECT(a != poisson_schedule(500.0, 2000.0, slot_seed(8, 3)));
  EXPECT(a.size() > 900 && a.size() < 1100);  // about rate x length
  EXPECT(std::is_sorted(a.begin(), a.end()));
  EXPECT(a.front() > 0.0 && a.back() < 2000.0);
}

void test_cpu_attribution() {
  // Process CPU less the generator and collector threads' own CPU.
  EXPECT(edge_cpu_ms_per_request(1000.0, 100.0, 50.0, 850) == 1.0);
  EXPECT(edge_cpu_ms_per_request(1000.0, 100.0, 50.0, 0) == 0.0);
}

}  // namespace

int main() {
  test_percentiles();
  test_populations_and_blocks();
  test_backlog_rule();
  test_judge_rung();
  test_judge_blocks();
  test_ladder_search();
  test_schedule_replays();
  test_cpu_attribution();
  std::printf("%s\n", failures == 0 ? "all perfbench analysis tests passed"
                                    : "perfbench analysis tests FAILED");
  return failures == 0 ? 0 : 1;
}
