// Work-conserving dynamic batch formation.
//
// Each edge worker forms its own batches straight off the shard's
// request_queue. A worker blocks for the first request, then takes
// whatever is already queued, up to `max_batch_size`, and runs at once:
// an idle worker never waits for company, so at light load a request
// costs its own inference and nothing more. Only when every other worker
// of the shard is mid-batch does a worker keep pulling, for at most
// `max_wait` after its first request: nobody could serve a newcomer
// sooner, so it may as well ride in this batch. That is the adaptive
// batching of online inference servers: batches grow with the backlog,
// not with a timer.
//
// Deadline awareness: that wait is capped at the tightest deadline of
// any request already in the forming batch, minus `deadline_margin` (a
// budget for the inference that still has to happen), so a
// near-deadline request never waits out a max_wait that would guarantee
// its expiry at the worker — flushing exactly AT the deadline would
// still shed it. (A deadline already inside the margin flushes
// immediately; whether the request is still alive is the worker's call.)
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/request_queue.hpp"

namespace appeal::serve {

/// Flush policy of the dynamic batcher.
struct batch_policy {
  std::size_t max_batch_size = 16;
  /// The longest a worker waits for more requests after its first, and
  /// only while every other worker of its shard is mid-batch.
  std::chrono::microseconds max_wait{500};
  /// How far BEFORE the tightest member deadline the flush fires — the
  /// service-time allowance that lets the capping request actually run
  /// instead of being shed the instant it reaches a worker.
  std::chrono::microseconds deadline_margin{1000};
};

/// Why a batch was emitted (exposed for tests and stats): it filled, its
/// wait ran out, the queue closed, or it took everything queued and had
/// no reason to wait.
enum class flush_reason { batch_full, wait_expired, queue_closed, drained };

/// One formed batch.
struct batch {
  std::vector<request> requests;
  flush_reason reason = flush_reason::queue_closed;
  bool empty() const { return requests.empty(); }
};

/// The workers of one shard as their batchers see each other: how many
/// there are, and how many hold a batch (from taking its first request
/// until asking for the next batch). Shared by every batcher over the
/// same request_queue; a worker that has not started yet counts as free.
struct worker_roster {
  explicit worker_roster(std::size_t workers) : workers(workers) {}
  const std::size_t workers;
  std::atomic<std::size_t> busy{0};
};

/// Pulls dynamic batches off a request_queue for one edge worker. Each
/// worker owns a batcher over the shared queue (the queue serializes
/// access) and the shared roster.
class batcher {
 public:
  batcher(request_queue& queue, const batch_policy& policy,
          worker_roster& roster);

  /// Blocks for the next batch; calling it again means the worker is
  /// done with the last one. An empty batch (reason `queue_closed`)
  /// means the queue is closed and drained — the worker should exit.
  batch next_batch();

  const batch_policy& policy() const { return policy_; }

 private:
  /// True while every other worker of the shard holds a batch too.
  bool peers_busy() const {
    return roster_.workers > 1 &&
           roster_.busy.load(std::memory_order_acquire) >= roster_.workers;
  }

  request_queue& queue_;
  batch_policy policy_;
  worker_roster& roster_;
  bool holding_ = false;  // this worker counts in roster_.busy
  /// Registry instruments shared by every batcher (one per edge worker):
  /// emitted batch sizes and flush reasons,
  /// {reason=full|timeout|closed|drained}.
  obs::histogram& metric_batch_size_;
  obs::counter& metric_flush_full_;
  obs::counter& metric_flush_timeout_;
  obs::counter& metric_flush_closed_;
  obs::counter& metric_flush_drained_;
};

}  // namespace appeal::serve
