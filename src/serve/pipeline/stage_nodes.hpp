// The two pieces of code an engine shard runs: the front door and the
// edge workers. Between them they stamp all five pipeline nodes'
// ledgers (node_ledger.hpp).
//
//   ingress_node  — passive front door, run on the submitting thread:
//                   admission verdict at the request_queue boundary
//                   (block / shed / degrade); shed requests egress here.
//   edge_workers  — the worker pool: one thread per edge backend, each
//                   running the whole edge path for the batches it forms.
//                   A worker stamps, in order:
//     batch_former  — batcher::next_batch pulled the request off the
//                     request_queue (work-conserving; see batcher.hpp);
//     edge_infer    — expired members are set aside uninferred, the
//                     rest run the two-head little-network forward;
//     appeal_decide — deadline check, then score >= δ with one δ per
//                     batch. Edge-kept, degraded and expired requests
//                     egress here, and the batch's scores feed the
//                     threshold_controller;
//     cloud_appeal  — the appeal is handed to the cloud_channel, whose
//                     completion callback (on a transport receive
//                     thread or the simulator thread) is this node's
//                     egress.
//
// Nothing sits between the stages: no thread and no queue. The only
// place work waits is the bounded request_queue, so a busy pool leaves
// it full and admission sheds, degrades or blocks at the front door.
// cloud_channel::appeal never blocks (it takes a lock, pushes and
// notifies), so the channel's coalescing thread is the next hop.
//
// Trace stages: queue_wait is enqueue → dequeue, batch_form dequeue →
// forward start, edge_infer the forward, decide forward end → decision;
// the engine's final `complete` residual absorbs everything else, so
// trace_report's stage-sum reconciliation holds by construction.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/backends.hpp"
#include "serve/batcher.hpp"
#include "serve/cloud_channel.hpp"
#include "serve/pipeline/node_ledger.hpp"
#include "serve/request.hpp"
#include "serve/request_queue.hpp"
#include "serve/threshold_controller.hpp"

namespace appeal::serve::pipeline {

/// Fulfills one request (the engine's complete(): trace finalization,
/// stats record, promise). Supplied by the engine to both stages.
using complete_fn = std::function<void(request&&, response&&)>;

/// The front door. No thread of its own: submit() runs on the caller's
/// (engine::submit) thread. Admitted requests land in the request_queue.
class ingress_node {
 public:
  ingress_node(obs::metrics_registry& registry, const std::string& deployment,
               admission_controller& admission, request_queue& queue,
               std::size_t shard_id, complete_fn complete);

  /// Admits, degrades, sheds (completing the request here), or reports
  /// closed (request untouched, nothing counted — it never entered the
  /// pipeline).
  admission_verdict submit(request&& r);

  node_stats stats() const { return ledger_.stats(); }

 private:
  node_ledger ledger_;
  admission_controller& admission_;
  request_queue& queue_;
  std::size_t shard_id_;
  complete_fn complete_;
};

/// The edge worker pool. One thread per backend (stateful network
/// backends stay single-threaded; each thread's nn workspace arena stays
/// private), each pulling, inferring, deciding and appealing inline.
class edge_workers {
 public:
  edge_workers(obs::metrics_registry& registry, const std::string& deployment,
               request_queue& queue, const batch_policy& policy,
               std::vector<edge_backend*> backends, bool simulate_edge_compute,
               double edge_ms, double time_scale,
               threshold_controller& controller, cloud_channel& channel,
               std::size_t shard_id, complete_fn complete);

  void start();
  /// Joins the workers; they exit once the request_queue is closed and
  /// drained. Idempotent.
  void join();

  /// The ledgers of batch_former, edge_infer, appeal_decide and
  /// cloud_appeal, in that order.
  std::vector<node_stats> stats() const;

 private:
  using clock = std::chrono::steady_clock;

  void run(edge_backend& backend);
  /// The δ decision over one batch's live members, in arrival order.
  void decide(std::vector<request>& live, const edge_inference& inference,
              clock::time_point infer_end);

  node_ledger batch_former_;
  node_ledger edge_infer_;
  node_ledger appeal_decide_;
  node_ledger cloud_appeal_;
  request_queue& queue_;
  batch_policy policy_;
  worker_roster roster_;
  std::vector<edge_backend*> backends_;
  bool simulate_edge_compute_;
  double edge_ms_;
  double time_scale_;
  threshold_controller& controller_;
  cloud_channel& channel_;
  std::size_t shard_id_;
  complete_fn complete_;
  std::vector<std::thread> threads_;
};

}  // namespace appeal::serve::pipeline
