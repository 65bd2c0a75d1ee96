// Engine pipeline tests: per-node conservation ledgers against
// engine-level stats, backpressure from a wedged edge to admission,
// work-conserving batching (no wait beside an idle worker, growth under
// saturation, deadline-capped waits), and lossless shutdown with
// requests still queued.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve_fixtures.hpp"

namespace {

using namespace appeal;
using namespace appeal::fixtures;
// ----------------------------------------------------- engine integration

/// Asserts the full conservation chain over an engine's node ledgers.
/// Call after shutdown(): a worker stamps a node's ledger around the
/// completion it makes there, so the books are guaranteed balanced once
/// the workers are joined, not merely once every promise resolved.
void expect_conserved(const serve::engine& eng) {
  const std::vector<serve::pipeline::node_stats> nodes = eng.node_stats();
  ASSERT_EQ(nodes.size(), 5U);
  for (const auto& s : nodes) {
    EXPECT_EQ(s.in, s.out + s.egress) << "node " << s.name << " leaks";
  }
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i].out, nodes[i + 1].in)
        << nodes[i].name << " -> " << nodes[i + 1].name << " hand-off";
  }
  const serve::stats_snapshot s = eng.snapshot();
  std::uint64_t egress_total = 0;
  for (const auto& node : nodes) egress_total += node.egress;
  EXPECT_EQ(nodes.front().in, s.submitted);
  EXPECT_EQ(egress_total, s.submitted);
  EXPECT_EQ(egress_total, s.completed + s.shed + s.expired + s.cloud_expired);
}

TEST(pipeline_engine, node_ledgers_reconcile_with_engine_stats) {
  const std::size_t n = 4000;
  const population p = make_population(n, 61);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.key = i;
    req.label = p.labels[i];
    // A third of the traffic carries deadlines; the 1 µs ones expire in
    // the queue, so the expired-egress leg of the ledger is exercised.
    if (i % 3 == 0) {
      req.deadline = std::chrono::microseconds(i % 6 == 0 ? 1 : 10'000'000);
    }
    futures.push_back(eng.submit(std::move(req)));
  }
  eng.drain();
  eng.shutdown();

  for (auto& f : futures) f.get();  // every promise resolved
  expect_conserved(eng);

  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_GT(s.expired, 0U);
  EXPECT_GT(s.appealed, 0U);
  // Edge-kept + degraded + expired all egress at the decide node; cloud
  // completions at the sink.
  const auto nodes = eng.node_stats();
  EXPECT_EQ(nodes[0].name, "ingress");
  EXPECT_EQ(nodes[1].name, "batch_former");
  EXPECT_EQ(nodes[2].name, "edge_infer");
  EXPECT_EQ(nodes[3].name, "appeal_decide");
  EXPECT_EQ(nodes[3].egress,
            s.edge_kept + s.edge_degraded + s.expired);
  EXPECT_EQ(nodes[4].name, "cloud_appeal");
  EXPECT_EQ(nodes[4].egress, s.appealed + s.cloud_expired);
  EXPECT_EQ(nodes[4].out, 0U) << "the sink forwards nothing";
}

/// Edge backend whose first `wedged_calls` infer() calls block until
/// released — wedges edge workers so the request queue fills (or so a
/// worker's peers are provably mid-batch). Records every batch size.
class gated_edge_backend : public serve::edge_backend {
 public:
  gated_edge_backend(
      std::vector<std::size_t> predictions, std::vector<double> scores,
      std::size_t wedged_calls = std::numeric_limits<std::size_t>::max())
      : replay_(std::move(predictions), std::move(scores)),
        wedged_calls_(wedged_calls) {}

  serve::edge_inference infer(
      const std::vector<serve::request>& batch) override {
    std::unique_lock<std::mutex> lock(mutex_);
    sizes_.push_back(batch.size());
    if (sizes_.size() <= wedged_calls_) {
      cv_.wait(lock, [&] { return open_; });
    }
    lock.unlock();
    return replay_.infer(batch);
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::size_t entered() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sizes_.size();
  }
  std::vector<std::size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sizes_;
  }
  /// Polls until `calls` infer() calls have started (false after 10 s).
  bool wait_entered(std::size_t calls) const {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered() < calls) {
      if (std::chrono::steady_clock::now() > give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

 private:
  serve::replay_edge_backend replay_;
  const std::size_t wedged_calls_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<std::size_t> sizes_;
};

TEST(pipeline_engine, backpressure_reaches_admission_when_a_stage_wedges) {
  const std::size_t n = 600;
  const population p = make_population(n, 67);
  gated_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  cfg.stats.deployment = "wedged-edge";
  cfg.num_workers = 1;
  // Tiny everything: with the edge backend wedged, one batch in flight
  // and a 16-deep request queue are all the system can hold — nothing
  // between the stages buffers, so the rest must shed at the front door.
  cfg.queue_capacity = 16;
  cfg.batching.max_batch_size = 4;
  cfg.admission.policy = serve::admission_policy::shed;
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));
  obs::counter& shed_verdicts = obs::default_registry().get_counter(
      "appeal_admission_total", {{"deployment", "wedged-edge"},
                                 {"policy", "shed"},
                                 {"verdict", "shed"}});
  const std::uint64_t shed_before = shed_verdicts.value();

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  // The wedge held: at most one batch entered the edge backend, and the
  // bounded queue forced admission to shed instead of buffering.
  EXPECT_LE(edge.entered(), 1U);
  EXPECT_GT(shed_verdicts.value(), shed_before)
      << "backpressure never reached the admission controller";

  edge.open();
  eng.drain();
  eng.shutdown();
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    const serve::response r = f.get();
    if (r.status == serve::request_status::shed) {
      ++shed;
    } else {
      ++ok;
    }
  }
  EXPECT_EQ(ok + shed, n);
  EXPECT_GT(ok, 0U);
  EXPECT_GT(shed, 0U);
  EXPECT_EQ(shed_verdicts.value() - shed_before, shed);
  expect_conserved(eng);
  const auto nodes = eng.node_stats();
  EXPECT_EQ(nodes[0].name, "ingress");
  EXPECT_EQ(nodes[0].egress, static_cast<std::uint64_t>(shed));
}

TEST(pipeline_engine, lone_request_skips_max_wait_beside_an_idle_worker) {
  const population p = make_population(16, 79);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.0;  // every request stays on the edge
  cfg.num_workers = 2;
  cfg.batching.max_wait = std::chrono::milliseconds(20);
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < 5; ++i) {
    // Both workers idle before each request arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const serve::response r = eng.submit(tensor(), i, p.labels[i]).get();
    ASSERT_EQ(r.status, serve::request_status::ok);
    latency_ms.push_back(r.latency_ms);
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  EXPECT_LT(latency_ms[2], 10.0)
      << "a lone request waited out max_wait while a worker sat idle";
}

TEST(pipeline_engine, batches_grow_when_arrivals_outpace_a_saturated_pool) {
  const std::size_t n = 64;
  const population p = make_population(n, 83);
  gated_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  cfg.num_workers = 2;
  cfg.batching.max_batch_size = 16;
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  // Wedge both workers, one request each; everything after queues.
  std::vector<std::future<serve::response>> futures;
  futures.push_back(eng.submit(tensor(), 0, p.labels[0]));
  ASSERT_TRUE(edge.wait_entered(1));
  futures.push_back(eng.submit(tensor(), 1, p.labels[1]));
  ASSERT_TRUE(edge.wait_entered(2));
  for (std::size_t i = 2; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  edge.open();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::request_status::ok);
  }
  eng.shutdown();

  const std::vector<std::size_t> sizes = edge.batch_sizes();
  std::size_t total = 0;
  for (std::size_t s : sizes) total += s;
  EXPECT_EQ(total, n);
  const std::size_t largest = *std::max_element(sizes.begin(), sizes.end());
  EXPECT_GT(largest, 1U) << "a backlog must be served in batches";
  EXPECT_LE(largest, cfg.batching.max_batch_size);
  expect_conserved(eng);
}

TEST(pipeline_engine, deadline_caps_the_wait_while_every_peer_is_busy) {
  const population p = make_population(8, 89);
  gated_edge_backend edge(p.little, p.scores, /*wedged_calls=*/1);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.0;
  cfg.num_workers = 2;
  cfg.batching.max_wait = std::chrono::seconds(10);  // "forever"
  cfg.batching.deadline_margin = std::chrono::milliseconds(50);
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::future<serve::response> wedged = eng.submit(tensor(), 0, p.labels[0]);
  ASSERT_TRUE(edge.wait_entered(1));
  // The other worker takes a lone request while its only peer is
  // mid-batch: it may wait for company, but only until the request's
  // deadline minus the margin, not for max_wait.
  serve::inference_request req;
  req.key = 1;
  req.label = p.labels[1];
  req.deadline = std::chrono::milliseconds(200);
  const serve::response r = eng.submit(std::move(req)).get();
  EXPECT_EQ(r.status, serve::request_status::ok);
  EXPECT_GE(r.latency_ms, 100.0)
      << "a worker whose peers are all busy should wait for company";
  EXPECT_LT(r.latency_ms, 1000.0) << "the deadline must cap the wait";

  edge.open();
  EXPECT_EQ(wedged.get().status, serve::request_status::ok);
  eng.shutdown();
  expect_conserved(eng);
}

TEST(pipeline_engine, shutdown_with_in_flight_items_loses_nothing) {
  const std::size_t n = 2000;
  const population p = make_population(n, 71);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  // No drain: shut down with the request queue still loaded. The
  // workers must finish everything queued — a broken promise here would
  // throw.
  eng.shutdown();
  for (auto& f : futures) {
    const serve::response r = f.get();
    EXPECT_EQ(r.status, serve::request_status::ok);
  }
  expect_conserved(eng);
  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.completed, n);
}

TEST(pipeline_engine, unified_constructor_matches_legacy_shims) {
  const std::size_t n = 1000;
  const population p = make_population(n, 73);
  const double delta = 0.55;

  auto run = [&](serve::engine& eng) {
    for (std::size_t i = 0; i < n; ++i) {
      eng.submit(tensor(), i, p.labels[i]);
    }
    eng.drain();
    return eng.snapshot();
  };

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = delta;

  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine unified(cfg,
                        serve::engine_resources::standalone(edge, cloud));
  const serve::stats_snapshot a = run(unified);

  // A second independently-built standalone engine must serve the same
  // replay workload identically (resource wiring is stateless).
  serve::replay_edge_backend edge2(p.little, p.scores);
  serve::replay_cloud_backend cloud2(p.big);
  serve::engine again(cfg, serve::engine_resources::standalone(edge2, cloud2));
  const serve::stats_snapshot b = run(again);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.edge_kept, b.edge_kept);
  EXPECT_EQ(a.appealed, b.appealed);
  EXPECT_DOUBLE_EQ(a.online_accuracy, b.online_accuracy);

  serve::engine owning(
      cfg, serve::engine_resources::owning(
               cfg,
               [&p](std::size_t) {
                 return std::make_unique<serve::replay_edge_backend>(
                     p.little, p.scores);
               },
               [&p] {
                 return std::make_unique<serve::replay_cloud_backend>(p.big);
               }));
  const serve::stats_snapshot c = run(owning);
  EXPECT_EQ(a.edge_kept, c.edge_kept);
  EXPECT_EQ(a.appealed, c.appealed);
}

}  // namespace
