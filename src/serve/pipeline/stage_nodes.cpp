#include "serve/pipeline/stage_nodes.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace appeal::serve::pipeline {

namespace {

using clock = std::chrono::steady_clock;

double ms_between(clock::time_point from, clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

// ---------------------------------------------------------------- ingress

ingress_node::ingress_node(obs::metrics_registry& registry,
                           const std::string& deployment,
                           admission_controller& admission,
                           request_queue& queue, std::size_t shard_id,
                           complete_fn complete)
    : ledger_("ingress", registry, deployment),
      admission_(admission),
      queue_(queue),
      shard_id_(shard_id),
      complete_(std::move(complete)) {}

admission_verdict ingress_node::submit(request&& r) {
  const admission_verdict verdict = admission_.try_admit(queue_, r);
  if (verdict == admission_verdict::closed) return verdict;
  ledger_.count_in();
  switch (verdict) {
    case admission_verdict::admitted:
    case admission_verdict::degraded:
      ledger_.count_out();
      break;
    case admission_verdict::shed: {
      response resp;
      resp.id = r.id;
      resp.status = request_status::shed;
      resp.shard = shard_id_;
      ledger_.count_egress();
      complete_(std::move(r), std::move(resp));
      break;
    }
    case admission_verdict::closed:
      break;
  }
  return verdict;
}

// ------------------------------------------------------------ edge workers

edge_workers::edge_workers(obs::metrics_registry& registry,
                           const std::string& deployment, request_queue& queue,
                           const batch_policy& policy,
                           std::vector<edge_backend*> backends,
                           bool simulate_edge_compute, double edge_ms,
                           double time_scale, threshold_controller& controller,
                           cloud_channel& channel, std::size_t shard_id,
                           complete_fn complete)
    : batch_former_("batch_former", registry, deployment),
      edge_infer_("edge_infer", registry, deployment),
      appeal_decide_("appeal_decide", registry, deployment),
      cloud_appeal_("cloud_appeal", registry, deployment),
      queue_(queue),
      policy_(policy),
      roster_(backends.size()),
      backends_(std::move(backends)),
      simulate_edge_compute_(simulate_edge_compute),
      edge_ms_(edge_ms),
      time_scale_(time_scale),
      controller_(controller),
      channel_(channel),
      shard_id_(shard_id),
      complete_(std::move(complete)) {
  APPEAL_CHECK(!backends_.empty(), "edge_workers needs backends");
  for (edge_backend* backend : backends_) {
    APPEAL_CHECK(backend != nullptr, "edge backend must not be null");
  }
}

void edge_workers::start() {
  threads_.reserve(backends_.size());
  for (edge_backend* backend : backends_) {
    threads_.emplace_back([this, backend] { run(*backend); });
  }
}

void edge_workers::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::vector<node_stats> edge_workers::stats() const {
  return {batch_former_.stats(), edge_infer_.stats(), appeal_decide_.stats(),
          cloud_appeal_.stats()};
}

void edge_workers::run(edge_backend& backend) {
  batcher form(queue_, policy_, roster_);
  std::vector<request> live;
  std::vector<request> expired;
  for (;;) {
    batch b = form.next_batch();
    if (b.empty()) return;  // request_queue closed and drained
    const std::uint64_t n = b.requests.size();
    batch_former_.count_in(n);
    batch_former_.count_out(n);
    edge_infer_.count_in(n);

    // Expired members get no inference; the rest keep arrival order, so
    // the controller sees the scores in the order they arrived.
    live.clear();
    expired.clear();
    const clock::time_point now = clock::now();
    for (request& r : b.requests) {
      const bool late = r.deadline != request::no_deadline && now > r.deadline;
      (late ? expired : live).push_back(std::move(r));
    }

    edge_inference inference;
    clock::time_point infer_end = now;
    if (!live.empty()) {
      const clock::time_point infer_start = clock::now();
      for (request& r : live) {
        if (r.trace != nullptr) {
          r.trace->set(obs::stage::queue_wait,
                       ms_between(r.enqueue_time, r.dequeue_time));
          r.trace->set(obs::stage::batch_form,
                       ms_between(r.dequeue_time, infer_start));
        }
      }
      inference = backend.infer(live);
      APPEAL_CHECK(inference.predictions.size() == live.size() &&
                       inference.scores.size() == live.size(),
                   "edge backend must return one result per request");
      if (simulate_edge_compute_) {
        const double scaled = edge_ms_ * time_scale_;
        if (scaled > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(scaled));
        }
      }
      // The simulated accelerator pass (when on) is part of the edge
      // forward as far as attribution goes.
      infer_end = clock::now();
      for (request& r : live) {
        if (r.trace != nullptr) {
          r.trace->set(obs::stage::edge_infer,
                       ms_between(infer_start, infer_end));
        }
      }
    }
    edge_infer_.count_out(n);
    appeal_decide_.count_in(n);

    for (request& r : expired) {
      response resp;
      resp.id = r.id;
      resp.status = request_status::expired;
      resp.shard = shard_id_;
      resp.queue_ms = ms_between(r.enqueue_time, r.dequeue_time);
      if (r.trace != nullptr) {
        r.trace->set(obs::stage::queue_wait, resp.queue_ms);
      }
      appeal_decide_.count_egress();
      complete_(std::move(r), std::move(resp));
    }
    if (!live.empty()) decide(live, inference, infer_end);
  }
}

void edge_workers::decide(std::vector<request>& live,
                          const edge_inference& inference,
                          clock::time_point infer_end) {
  // One δ for the whole batch: the decision the paper's predictor head
  // makes per input, applied at batch granularity. Degraded-admission
  // requests bypass the decision entirely (they may never appeal) and
  // are excluded from the controller's observation — both the skip
  // count and the score denominator — so observed_sr stays the rate
  // over δ-decided traffic.
  const double delta = controller_.delta();
  std::vector<double> decided_scores;
  decided_scores.reserve(live.size());
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    request& r = live[i];
    const double score = inference.scores[i];
    const double queue_ms = ms_between(r.enqueue_time, r.dequeue_time);
    if (r.trace != nullptr) {
      r.trace->set(obs::stage::decide, ms_between(infer_end, clock::now()));
    }
    if (!r.force_edge) decided_scores.push_back(score);
    if (r.force_edge || score >= delta) {
      response resp;
      resp.id = r.id;
      resp.predicted_class = inference.predictions[i];
      resp.taken = r.force_edge ? route::edge_degraded : route::edge;
      resp.shard = shard_id_;
      resp.score = score;
      resp.delta = delta;
      resp.queue_ms = queue_ms;
      if (!r.force_edge) ++skipped;
      appeal_decide_.count_egress();
      complete_(std::move(r), std::move(resp));
      continue;
    }
    appeal_decide_.count_out();
    cloud_appeal_.count_in();
    channel_.appeal(
        std::move(r),
        [this, score, delta, queue_ms](request&& done,
                                       const appeal_outcome& outcome) {
          response resp;
          resp.id = done.id;
          resp.taken = route::cloud;
          resp.shard = shard_id_;
          resp.score = score;
          resp.delta = delta;
          resp.queue_ms = queue_ms;
          resp.link_ms = outcome.link_ms;
          resp.cloud_ms = outcome.cloud_ms;
          // Feed the measured offload round trip back into the
          // latency-SLO controller (no-op in the other modes): a
          // cloud_ms spike backs δ off toward edge-only and it recovers
          // when the link normalizes.
          controller_.observe_cloud_ms(outcome.link_ms);
          if (outcome.expired) {
            // The cloud shed the appeal (deadline blown in its work
            // queue): the client gets an honest `expired`, not a
            // fabricated prediction.
            resp.status = request_status::expired;
          } else {
            resp.predicted_class = outcome.prediction;
          }
          cloud_appeal_.count_egress();
          complete_(std::move(done), std::move(resp));
        });
  }
  controller_.observe(decided_scores, skipped);
}

}  // namespace appeal::serve::pipeline
