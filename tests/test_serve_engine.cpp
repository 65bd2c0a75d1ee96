// End-to-end serving engine tests (the engine stays usable standalone,
// without the serve::server facade): every submitted request completes,
// stats are self-consistent, with a fixed δ the online accuracy/SR equal
// the offline core::threshold evaluation of the same population, owned
// factory backends, and deadline expiry.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "core/threshold.hpp"
#include "metrics/metrics.hpp"
#include "serve/engine.hpp"
#include "serve_fixtures.hpp"
#include "util/error.hpp"

namespace {

using namespace appeal;
using namespace appeal::fixtures;

TEST(engine, unnamed_engines_alive_together_keep_separate_counts) {
  const population p = make_population(600, 37);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  serve::engine a(cfg, serve::engine_resources::standalone(edge, cloud));
  serve::engine b(cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  std::size_t appeals_a = 0;
  std::size_t appeals_b = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    const bool to_a = i % 3 != 0;  // 400 to a, 200 to b
    (to_a ? appeals_a : appeals_b) += p.scores[i] < 0.55;
    futures.push_back((to_a ? a : b).submit(tensor(), i, p.labels[i]));
  }
  for (auto& f : futures) f.get();
  a.drain();
  b.drain();

  const serve::stats_snapshot sa = a.snapshot();
  const serve::stats_snapshot sb = b.snapshot();
  EXPECT_EQ(sa.completed, 400U);
  EXPECT_EQ(sb.completed, 200U);
  EXPECT_EQ(sa.appealed, appeals_a);
  EXPECT_EQ(sb.appealed, appeals_b);
  EXPECT_EQ(sa.appeals_on_wire, appeals_a);
  EXPECT_EQ(sb.appeals_on_wire, appeals_b);
  EXPECT_EQ(a.node_stats().front().in, 400U);
  EXPECT_EQ(b.node_stats().front().in, 200U);
}

TEST(engine, fixed_delta_matches_offline_evaluation) {
  const std::size_t n = 4000;
  const population p = make_population(n, 31);
  const double delta = 0.55;

  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = delta;
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  eng.drain();

  // Offline ground truth for the identical population and δ.
  core::accuracy_context ctx;
  ctx.little_accuracy = metrics::accuracy(p.little, p.labels);
  ctx.big_accuracy = metrics::accuracy(p.big, p.labels);
  const core::operating_point offline =
      core::evaluate_at_delta(p.little, p.big, p.labels, p.scores, delta, ctx);

  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.edge_kept + s.appealed, n);
  EXPECT_EQ(s.labeled, n);
  EXPECT_NEAR(s.achieved_sr, offline.skipping_rate, 1e-12);
  EXPECT_NEAR(s.online_accuracy, offline.overall_accuracy, 1e-12);

  // Per-response invariants: the route follows the threshold rule and the
  // prediction comes from the routed model.
  for (std::size_t i = 0; i < n; ++i) {
    const serve::response r = futures[i].get();
    const std::size_t key = r.id;  // ids are submit order here
    ASSERT_LT(key, n);
    if (r.taken == serve::route::edge) {
      EXPECT_GE(r.score, delta);
    } else {
      EXPECT_LT(r.score, delta);
    }
    EXPECT_DOUBLE_EQ(r.delta, delta);
    EXPECT_GE(r.latency_ms, 0.0);
  }
}

TEST(engine, adaptive_mode_tracks_target_sr) {
  const std::size_t n = 6000;
  const population p = make_population(n, 37);

  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::track_sr;
  cfg.threshold.target_sr = 0.85;
  cfg.threshold.initial_delta = 0.99;  // start far off target
  cfg.threshold.recalibrate_every = 128;
  cfg.threshold.window = 1024;
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  // Warm the controller through its first recalibration windows, then
  // measure steady state only (the serving bench does the same): how
  // long the cold-start transient lasts depends on scheduling — under a
  // sanitizer it can stretch far enough to drag the overall SR outside
  // any fixed tolerance.
  const std::size_t warmup = 2000;
  for (std::size_t i = 0; i < warmup; ++i) {
    eng.submit(tensor(), i, p.labels[i]);
  }
  eng.drain();
  eng.reset_stats();
  for (std::size_t i = warmup; i < n; ++i) {
    eng.submit(tensor(), i, p.labels[i]);
  }
  eng.drain();

  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.completed, n - warmup);
  // 2% of target in steady state (the acceptance bound of the serving
  // bench).
  EXPECT_NEAR(s.achieved_sr, 0.85, 0.02);
  EXPECT_NEAR(eng.controller().observed_sr(), 0.85, 0.05);
  EXPECT_GT(eng.controller().recalibrations(), 0U);
}

TEST(engine, unlabeled_requests_are_excluded_from_accuracy) {
  const std::size_t n = 200;
  const population p = make_population(n, 41);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label =
        i % 2 == 0 ? p.labels[i] : serve::request::no_label;
    eng.submit(tensor(), i, label);
  }
  eng.drain();
  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.labeled, n / 2);
}

TEST(engine, owning_factory_constructor_serves_like_references) {
  const std::size_t n = 1000;
  const population p = make_population(n, 53);
  const double delta = 0.55;

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = delta;
  serve::engine eng(
      cfg,
      serve::engine_resources::owning(
          cfg,
          [&p](std::size_t) {
            return std::make_unique<serve::replay_edge_backend>(p.little,
                                                                p.scores);
          },
          [&p] {
            return std::make_unique<serve::replay_cloud_backend>(p.big);
          }));

  for (std::size_t i = 0; i < n; ++i) {
    eng.submit(tensor(), i, p.labels[i]);
  }
  eng.drain();
  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.edge_kept + s.appealed, n);
  EXPECT_GT(s.edge_kept, 0U);
  EXPECT_GT(s.appealed, 0U);
}

TEST(engine, expired_deadline_skips_inference) {
  const std::size_t n = 64;
  const population p = make_population(n, 59);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  // A wide batching wait guarantees the queue dwell exceeds the deadline.
  cfg.num_workers = 1;
  cfg.batching.max_batch_size = n;
  cfg.batching.max_wait = std::chrono::microseconds(20'000);
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.key = i;
    req.label = p.labels[i];
    req.deadline = std::chrono::microseconds(i % 2 == 0 ? 1 : 10'000'000);
    futures.push_back(eng.submit(std::move(req)));
  }
  eng.drain();

  std::size_t expired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::response r = futures[i].get();
    if (r.status == serve::request_status::expired) {
      ++expired;
      EXPECT_EQ(i % 2, 0U) << "only the 1 µs deadlines may expire";
    }
  }
  EXPECT_GT(expired, 0U);
  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.expired, expired);
  EXPECT_EQ(s.completed + s.expired, n);
  // Expired requests are excluded from SR/accuracy denominators.
  EXPECT_EQ(s.labeled, s.completed);
}

TEST(engine, submit_after_shutdown_throws) {
  const population p = make_population(16, 43);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine_config cfg = fast_config();
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));
  eng.submit(tensor(), 0, p.labels[0]);
  eng.shutdown();
  EXPECT_THROW(eng.submit(tensor(), 1, p.labels[1]), util::error);
}

TEST(engine, simulated_link_delay_shows_up_in_cloud_latency) {
  const std::size_t n = 64;
  const population p = make_population(n, 47);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.num_workers = 1;
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 2.0;  // appeal everything
  cfg.channel.time_scale = 0.05;      // 5% of the modeled delays
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  eng.drain();

  const double min_link_ms =
      (cfg.link.comm_round_trip_ms + cfg.link.input_kb * cfg.link.comm_ms_per_kb) *
      cfg.channel.time_scale;
  for (auto& f : futures) {
    const serve::response r = f.get();
    EXPECT_EQ(r.taken, serve::route::cloud);
    EXPECT_GE(r.link_ms, min_link_ms * 0.9);
    EXPECT_GE(r.latency_ms, r.link_ms * 0.5);
  }
  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.appealed, n);
  EXPECT_GT(s.mean_link_ms, 0.0);
}

}  // namespace
