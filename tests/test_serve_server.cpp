// Multi-tenant server facade tests: two deployments with different
// (little, big) replay pairs served concurrently through one server with
// sharded engines, key-affine routing, per-deployment stats matching the
// offline system_eval prediction, and non-blocking admission control
// (shed / edge_only) under saturating load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "collab/system_eval.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/server.hpp"
#include "serve/transport/wire.hpp"
#include "serve_fixtures.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace {

using namespace appeal;
using namespace appeal::fixtures;
using namespace std::chrono_literals;

collab::sweep_point offline_point(const population& p, double target_sr) {
  collab::routed_split split;
  split.labels = p.labels;
  split.little_predictions = p.little;
  split.big_predictions = p.big;
  split.scores = p.scores;
  return collab::accuracy_vs_sr_curve(split, nullptr, {target_sr}).front();
}

serve::deployment_config replay_deployment_config(std::size_t shards,
                                                  double delta) {
  serve::deployment_config cfg;
  cfg.shards = shards;
  cfg.shard = fast_config();
  cfg.shard.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.shard.threshold.initial_delta = delta;
  return cfg;
}

serve::edge_backend_factory replay_edge_factory(const population& p) {
  return [&p](std::size_t, std::size_t) {
    return std::make_unique<serve::replay_edge_backend>(p.little, p.scores);
  };
}

serve::cloud_backend_factory replay_cloud_factory(const population& p) {
  return [&p] {
    return std::make_unique<serve::replay_cloud_backend>(p.big);
  };
}

TEST(server, two_sharded_deployments_match_their_offline_predictions) {
  const std::size_t n = 4000;
  const population vision = make_population(n, 101, 0.8);
  const population speech = make_population(n, 202, 0.7);
  const collab::sweep_point vision_offline = offline_point(vision, 0.9);
  const collab::sweep_point speech_offline = offline_point(speech, 0.8);

  serve::server srv;
  srv.register_deployment("vision",
                          replay_deployment_config(3, vision_offline.delta),
                          replay_edge_factory(vision),
                          replay_cloud_factory(vision));
  srv.register_deployment("speech",
                          replay_deployment_config(2, speech_offline.delta),
                          replay_edge_factory(speech),
                          replay_cloud_factory(speech));
  EXPECT_EQ(srv.num_deployments(), 2U);

  // Both deployments are driven concurrently from a shared client pool.
  std::vector<std::future<serve::response>> vision_futs(n);
  std::vector<std::future<serve::response>> speech_futs(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        serve::inference_request to_vision;
        to_vision.model = "vision";
        to_vision.key = i;
        to_vision.label = vision.labels[i];
        vision_futs[i] = srv.submit(std::move(to_vision));
        serve::inference_request to_speech;
        to_speech.model = "speech";
        to_speech.key = i;
        to_speech.label = speech.labels[i];
        to_speech.priority = serve::priority_class::batch;
        speech_futs[i] = srv.submit(std::move(to_speech));
      }
    });
  }
  for (auto& t : clients) t.join();
  srv.drain();

  // Per-deployment aggregation: each deployment's achieved SR and online
  // accuracy reproduce its own offline system_eval prediction.
  const serve::stats_snapshot v = srv.at("vision").snapshot();
  const serve::stats_snapshot s = srv.at("speech").snapshot();
  EXPECT_EQ(v.completed, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(v.shed, 0U);
  EXPECT_EQ(s.shed, 0U);
  EXPECT_NEAR(v.achieved_sr, vision_offline.achieved_sr, 0.02);
  EXPECT_NEAR(s.achieved_sr, speech_offline.achieved_sr, 0.02);
  EXPECT_NEAR(v.online_accuracy, vision_offline.accuracy, 0.02);
  EXPECT_NEAR(s.online_accuracy, speech_offline.accuracy, 0.02);
  // The two tenants really are different systems behind one front door.
  EXPECT_NE(vision_offline.delta, speech_offline.delta);

  // Key-affine routing: every response was served by the shard the router
  // maps its key to, and the traffic actually spread over >= 2 shards.
  serve::deployment& vd = srv.at("vision");
  ASSERT_EQ(vd.num_shards(), 3U);
  std::set<std::size_t> shards_hit;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::response r = vision_futs[i].get();
    EXPECT_EQ(r.status, serve::request_status::ok);
    EXPECT_EQ(r.shard, vd.shard_for_key(i));
    shards_hit.insert(r.shard);
  }
  EXPECT_GE(shards_hit.size(), 2U);
  // Same key resubmitted -> same shard (affinity is a pure key property).
  for (std::uint64_t key : {7ULL, 1234ULL, 3999ULL}) {
    serve::inference_request again;
    again.model = "vision";
    again.key = key;
    const serve::response r = srv.submit(std::move(again)).get();
    EXPECT_EQ(r.shard, vd.shard_for_key(key));
  }

  const std::string report = srv.render_stats();
  EXPECT_NE(report.find("deployment 'vision'"), std::string::npos);
  EXPECT_NE(report.find("deployment 'speech'"), std::string::npos);
}

/// The stats window is a view over the registry: after warmup traffic and
/// reset_stats(), a snapshot counts only what came after — requests,
/// appeals and wire bytes alike — and the exported counters, which never
/// rewind, equal the two windows summed.
TEST(server, stats_window_counts_only_post_reset_traffic) {
  const std::size_t n = 1500;
  const std::size_t warm = 500;
  const double delta = 0.55;
  const population p = make_population(n, 303, 0.8);
  serve::server srv;
  serve::deployment& dep = srv.register_deployment(
      "window", replay_deployment_config(2, delta), replay_edge_factory(p),
      replay_cloud_factory(p));
  const tensor input(shape{8});
  const auto drive = [&](std::size_t begin, std::size_t end) {
    std::vector<std::future<serve::response>> futs;
    for (std::size_t i = begin; i < end; ++i) {
      serve::inference_request req;
      req.model = "window";
      req.key = i;
      req.label = p.labels[i];
      req.input = input;
      futs.push_back(srv.submit(std::move(req)));
    }
    for (auto& f : futs) f.get();
    srv.drain();
  };

  drive(0, warm);
  const serve::stats_snapshot w = dep.snapshot();
  dep.reset_stats();
  drive(warm, n);
  const serve::stats_snapshot s = dep.snapshot();

  std::size_t appeals = 0;  // fixed δ: routing is a pure function of score
  for (std::size_t i = warm; i < n; ++i) appeals += p.scores[i] < delta;
  ASSERT_GT(appeals, 0U);
  EXPECT_EQ(w.completed, warm);
  EXPECT_EQ(s.completed, n - warm);
  EXPECT_EQ(s.submitted, n - warm);
  EXPECT_EQ(s.appealed, appeals);
  EXPECT_EQ(s.appeals_on_wire, appeals);
  EXPECT_EQ(s.link_fallbacks, 0U);
  // Every frame is a header plus one fixed-size record per appeal of this
  // window, so uplink bytes per request (wire_bytes_tx / completed) is
  // this window's alone.
  serve::wire::appeal_view v;
  v.model = "window";
  v.input = &input;
  EXPECT_EQ(s.wire_bytes_tx, s.appeal_batches * serve::wire::kHeaderBytes +
                                 appeals * serve::wire::appeal_wire_bytes(v));

  // The windows tile the exported counters.
  obs::metrics_registry& reg = obs::default_registry();
  EXPECT_EQ(reg.get_counter("appeal_completed_total",
                            {{"deployment", "window"}}).value(),
            w.completed + s.completed);
  EXPECT_EQ(reg.get_counter("appeal_wire_tx_bytes_total",
                            {{"link", "window"}}).value(),
            w.wire_bytes_tx + s.wire_bytes_tx);
}

TEST(server, unknown_model_and_duplicate_registration_throw) {
  const population p = make_population(64, 7, 0.8);
  serve::server srv;
  srv.register_deployment("only", replay_deployment_config(1, 0.5),
                          replay_edge_factory(p), replay_cloud_factory(p));
  EXPECT_THROW(srv.register_deployment("only",
                                       replay_deployment_config(1, 0.5),
                                       replay_edge_factory(p),
                                       replay_cloud_factory(p)),
               util::error);
  serve::inference_request req;
  req.model = "missing";
  EXPECT_THROW(srv.submit(std::move(req)), util::error);
  EXPECT_EQ(srv.find("missing"), nullptr);
  EXPECT_NE(srv.find("only"), nullptr);
}

/// Saturating closed-loop load against a tiny queue with slow edge
/// workers: `shed` admission must answer immediately (status::shed)
/// instead of blocking the submitting thread.
TEST(server, shed_admission_never_blocks_under_saturation) {
  const std::size_t n = 500;
  const population p = make_population(n, 11, 0.8);

  // δ=0: every admitted request completes on the edge, so the only thing
  // pacing the system is the simulated edge compute below.
  serve::deployment_config cfg = replay_deployment_config(2, 0.0);
  cfg.shard.num_workers = 1;
  cfg.shard.queue_capacity = 4;
  cfg.shard.batching.max_batch_size = 4;
  cfg.shard.admission.policy = serve::admission_policy::shed;
  // ~50 ms of simulated edge compute per batch: the workers cannot keep
  // up, so a blocking submit loop would take many seconds.
  cfg.shard.simulate_edge_compute = true;
  cfg.shard.channel.time_scale = 50.0 / cfg.shard.link.overall_latency_ms(1.0);

  serve::server srv;
  srv.register_deployment("slow", cfg, replay_edge_factory(p),
                          replay_cloud_factory(p));

  util::stopwatch clock;
  std::vector<std::future<serve::response>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.model = "slow";
    req.key = i;
    req.label = p.labels[i];
    futs.push_back(srv.submit(std::move(req)));
  }
  const double submit_seconds = clock.elapsed_seconds();
  // 500 requests through 2 shards draining 4-request batches at ~50 ms
  // per batch would need > 3 s if submit blocked; shedding keeps the
  // producer loop effectively instant.
  EXPECT_LT(submit_seconds, 2.0);

  srv.drain();
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futs) {
    const serve::response r = f.get();
    if (r.status == serve::request_status::shed) {
      ++shed;
    } else {
      ASSERT_EQ(r.status, serve::request_status::ok);
      ++ok;
    }
  }
  EXPECT_GT(shed, 0U);
  EXPECT_GT(ok, 0U);
  const serve::stats_snapshot s = srv.at("slow").snapshot();
  EXPECT_EQ(s.shed, shed);
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.submitted, n);
  EXPECT_GT(s.shed_rate, 0.0);
}

/// Same saturation under `edge_only`: the overflow band is admitted but
/// pinned to the edge (route::edge_degraded), so the slow uplink never
/// sees the excess load.
TEST(server, edge_only_admission_degrades_instead_of_appealing) {
  const std::size_t n = 300;
  const population p = make_population(n, 13, 0.8);

  serve::deployment_config cfg = replay_deployment_config(1, 2.0);  // δ=2:
  // every score < δ, so all *admitted* traffic would appeal.
  cfg.shard.num_workers = 1;
  cfg.shard.queue_capacity = 4;
  cfg.shard.batching.max_batch_size = 4;
  cfg.shard.admission.policy = serve::admission_policy::edge_only;
  cfg.shard.admission.degrade_headroom = 4.0;
  cfg.shard.simulate_edge_compute = true;
  cfg.shard.channel.time_scale = 10.0 / cfg.shard.link.overall_latency_ms(1.0);

  serve::server srv;
  srv.register_deployment("m", cfg, replay_edge_factory(p),
                          replay_cloud_factory(p));
  std::vector<std::future<serve::response>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.model = "m";
    req.key = i;
    req.label = p.labels[i];
    futs.push_back(srv.submit(std::move(req)));
  }
  srv.drain();

  std::size_t degraded = 0;
  for (auto& f : futs) {
    const serve::response r = f.get();
    if (r.status != serve::request_status::ok) continue;
    if (r.taken == serve::route::edge_degraded) {
      ++degraded;
      // Degraded answers come from the little model, pinned to the edge
      // even though the score is below δ.
      EXPECT_LT(r.score, 2.0);
    }
  }
  EXPECT_GT(degraded, 0U);
  const serve::stats_snapshot s = srv.at("m").snapshot();
  EXPECT_EQ(s.edge_degraded, degraded);
  EXPECT_EQ(s.edge_kept, 0U);  // nothing legitimately cleared δ=2
}

/// One admission verdict counter of `deployment`, read from `registry`.
std::uint64_t verdicts(obs::metrics_registry& registry,
                       const char* deployment, const char* policy,
                       const char* verdict) {
  return registry
      .get_counter("appeal_admission_total", {{"deployment", deployment},
                                              {"policy", policy},
                                              {"verdict", verdict}})
      .value();
}

/// admission_controller unit semantics, isolated from engine threading.
TEST(admission, batch_headroom_and_degrade_limits) {
  obs::metrics_registry registry;
  serve::request_queue queue(4);
  serve::admission_config cfg;
  cfg.policy = serve::admission_policy::shed;
  cfg.batch_headroom = 0.5;  // batch lane: 2 of 4 slots
  serve::admission_controller ctl(cfg, registry, "front");

  auto make = [](std::uint64_t id, serve::priority_class pri) {
    serve::request r;
    r.id = id;
    r.priority = pri;
    return r;
  };

  serve::request r0 = make(0, serve::priority_class::batch);
  serve::request r1 = make(1, serve::priority_class::batch);
  serve::request r2 = make(2, serve::priority_class::batch);
  EXPECT_EQ(ctl.try_admit(queue, r0), serve::admission_verdict::admitted);
  EXPECT_EQ(ctl.try_admit(queue, r1), serve::admission_verdict::admitted);
  // Batch traffic is refused at its headroom while interactive still fits.
  EXPECT_EQ(ctl.try_admit(queue, r2), serve::admission_verdict::shed);
  serve::request r3 = make(3, serve::priority_class::interactive);
  serve::request r4 = make(4, serve::priority_class::interactive);
  serve::request r5 = make(5, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, r3), serve::admission_verdict::admitted);
  EXPECT_EQ(ctl.try_admit(queue, r4), serve::admission_verdict::admitted);
  EXPECT_EQ(ctl.try_admit(queue, r5), serve::admission_verdict::shed);
  EXPECT_EQ(verdicts(registry, "front", "shed", "admitted"), 4U);
  EXPECT_EQ(verdicts(registry, "front", "shed", "shed"), 2U);

  // edge_only: the same full queue admits into the overflow band with
  // force_edge set.
  serve::admission_config degrade_cfg;
  degrade_cfg.policy = serve::admission_policy::edge_only;
  degrade_cfg.degrade_headroom = 2.0;
  serve::admission_controller degrade(degrade_cfg, registry, "overflow");
  serve::request r6 = make(6, serve::priority_class::interactive);
  EXPECT_EQ(degrade.try_admit(queue, r6), serve::admission_verdict::degraded);
  EXPECT_EQ(verdicts(registry, "overflow", "edge_only", "degraded"), 1U);
  EXPECT_EQ(verdicts(registry, "overflow", "edge_only", "admitted"), 0U);
  serve::request out;
  std::size_t forced = 0;
  while (queue.try_pop(out)) {
    if (out.force_edge) ++forced;
  }
  EXPECT_EQ(forced, 1U);

  // Closed queue reports `closed` and leaves the request with the caller.
  queue.close();
  serve::request r7 = make(7, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, r7), serve::admission_verdict::closed);
}

TEST(admission, cloud_pressure_tightens_batch_and_degrades_interactive_early) {
  // The breaker/overload signal from the cloud channel: batch admission
  // tightens by pressure_batch_scale, and interactive traffic degrades
  // to the edge at pressure_degrade_fraction × capacity instead of
  // waiting for the queue to fill with appeals bound for a sick uplink.
  serve::request_queue queue(4);
  serve::admission_config cfg;
  cfg.policy = serve::admission_policy::edge_only;
  cfg.batch_headroom = 0.5;          // 2 of 4 slots normally
  cfg.pressure_batch_scale = 0.5;    // 1 slot under pressure
  cfg.pressure_degrade_fraction = 0.5;  // degrade at 2 of 4
  obs::metrics_registry registry;
  serve::admission_controller ctl(cfg, registry, "pressured");
  EXPECT_FALSE(ctl.cloud_pressure());
  ctl.set_cloud_pressure(true);
  EXPECT_TRUE(ctl.cloud_pressure());

  auto make = [](std::uint64_t id, serve::priority_class pri) {
    serve::request r;
    r.id = id;
    r.priority = pri;
    return r;
  };
  serve::request b0 = make(0, serve::priority_class::batch);
  serve::request b1 = make(1, serve::priority_class::batch);
  EXPECT_EQ(ctl.try_admit(queue, b0), serve::admission_verdict::admitted);
  // The tightened batch lane (1 slot) refuses the second batch request —
  // and batch traffic never enters the degrade band.
  EXPECT_EQ(ctl.try_admit(queue, b1), serve::admission_verdict::shed);

  serve::request i0 = make(2, serve::priority_class::interactive);
  serve::request i1 = make(3, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, i0), serve::admission_verdict::admitted);
  // Queue depth 2 = pressure_degrade_fraction × capacity: interactive
  // now degrades to the edge even though the queue is half empty.
  EXPECT_EQ(ctl.try_admit(queue, i1), serve::admission_verdict::degraded);

  // Releasing the pressure restores the plain limits immediately.
  ctl.set_cloud_pressure(false);
  serve::request i2 = make(4, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, i2), serve::admission_verdict::admitted);

  EXPECT_EQ(verdicts(registry, "pressured", "edge_only", "admitted"), 3U);
  EXPECT_EQ(verdicts(registry, "pressured", "edge_only", "degraded"), 1U);
  EXPECT_EQ(verdicts(registry, "pressured", "edge_only", "shed"), 1U);
  serve::request out;
  std::size_t forced = 0;
  while (queue.try_pop(out)) {
    if (out.force_edge) ++forced;
  }
  EXPECT_EQ(forced, 1U);
}

}  // namespace
