#include "serve/batcher.hpp"

#include "util/error.hpp"

namespace appeal::serve {

namespace {

obs::counter& flush_counter(const char* reason) {
  return obs::default_registry().get_counter(
      "appeal_batch_flush_total", {{"reason", reason}},
      "batches emitted, by what triggered the flush");
}

}  // namespace

batcher::batcher(request_queue& queue, const batch_policy& policy,
                 worker_roster& roster)
    : queue_(queue),
      policy_(policy),
      roster_(roster),
      // Fixed binning (1 request per bin) so every batcher, whatever its
      // max_batch_size, shares one instrument; larger batches clamp.
      metric_batch_size_(obs::default_registry().get_histogram(
          "appeal_batch_size", {}, 0.0, 256.0, 256,
          "requests per emitted batch")),
      metric_flush_full_(flush_counter("full")),
      metric_flush_timeout_(flush_counter("timeout")),
      metric_flush_closed_(flush_counter("closed")),
      metric_flush_drained_(flush_counter("drained")) {
  APPEAL_CHECK(policy.max_batch_size > 0, "max_batch_size must be positive");
  APPEAL_CHECK(policy.max_wait.count() >= 0, "max_wait must be non-negative");
  APPEAL_CHECK(policy.deadline_margin.count() >= 0,
               "deadline_margin must be non-negative");
  APPEAL_CHECK(roster.workers > 0, "worker_roster needs a worker");
}

batch batcher::next_batch() {
  using clock = std::chrono::steady_clock;
  batch out;
  // Instruments only real batches: the empty queue-closed batch is the
  // worker-exit signal, not a flush.
  const auto emit = [this, &out](flush_reason reason) {
    out.reason = reason;
    if (out.empty()) return std::move(out);
    metric_batch_size_.observe(static_cast<double>(out.requests.size()));
    switch (reason) {
      case flush_reason::batch_full:
        metric_flush_full_.add(1);
        break;
      case flush_reason::wait_expired:
        metric_flush_timeout_.add(1);
        break;
      case flush_reason::queue_closed:
        metric_flush_closed_.add(1);
        break;
      case flush_reason::drained:
        metric_flush_drained_.add(1);
        break;
    }
    return std::move(out);
  };

  // The last batch is done: this worker is free until it takes a request.
  if (holding_) {
    roster_.busy.fetch_sub(1, std::memory_order_acq_rel);
    holding_ = false;
  }
  // Block indefinitely for the first request (poll in coarse slices so a
  // close() during the wait is picked up promptly even on platforms with
  // spurious-wakeup-free condvars).
  request first;
  request_queue::pop_result result;
  do {
    result =
        queue_.pop_until(first, clock::now() + std::chrono::milliseconds(50));
  } while (result == request_queue::pop_result::timed_out);
  if (result == request_queue::pop_result::closed) {
    return emit(flush_reason::queue_closed);
  }
  roster_.busy.fetch_add(1, std::memory_order_acq_rel);
  holding_ = true;
  first.dequeue_time = clock::now();
  // A wait ends when max_wait elapses — or sooner, if a request already
  // in the forming batch would expire first. Waiting out the full window
  // past a member's deadline guarantees the worker sheds it; flushing a
  // service margin BEFORE the tightest deadline gives it a chance to run
  // in time (flushing exactly at the deadline would still arrive
  // expired).
  auto flush_at = first.dequeue_time + policy_.max_wait;
  const auto add = [this, &out, &flush_at](request&& r) {
    if (r.deadline != request::no_deadline) {
      const auto capped = r.deadline - policy_.deadline_margin;
      if (capped < flush_at) flush_at = capped;
    }
    out.requests.push_back(std::move(r));
  };
  add(std::move(first));

  // Take whatever is queued; wait for more only while no other worker
  // could take a newcomer.
  while (out.requests.size() < policy_.max_batch_size) {
    request next;
    if (!queue_.try_pop(next)) {
      if (!peers_busy()) return emit(flush_reason::drained);
      result = queue_.pop_until(next, flush_at);
      if (result == request_queue::pop_result::timed_out) {
        return emit(flush_reason::wait_expired);
      }
      if (result == request_queue::pop_result::closed) {
        return emit(flush_reason::queue_closed);
      }
    }
    next.dequeue_time = clock::now();
    add(std::move(next));
  }
  return emit(flush_reason::batch_full);
}

}  // namespace appeal::serve
