// Serving statistics: a windowed view over the metrics registry.
//
// Every request, appeal, frame and byte a deployment serves is counted
// once, into its instruments in an obs::metrics_registry — the store the
// /metrics exporter renders. serve_stats is the deployment's view of
// those instruments, not a second store: record() bumps the request
// counters and the appeal_latency_ms histogram (wait-free, sharded), the
// cloud channel and its transport bump the link's (link_metrics), and
// snapshot() reports how far every one of them moved since the window
// opened. The window opens at construction and at every reset() — which
// records a baseline of each instrument, the latency bins included — so
// an earlier owner of the same labels, or a warmup phase, never leaks
// into a snapshot, while the exported counters stay monotonic as
// Prometheus requires.
//
// Latency quantiles come from the histogram's bins (constant memory,
// p50/p95/p99 read from the bin CDF); completions beyond its range are
// clamped into the top bin *and* counted in `overflow`, so a too-small
// `latency_range_ms` is visible instead of silently flattening p99.
// Online accuracy counts only requests that carried ground-truth labels
// (the collab::oracle protocol supplies them in evaluation runs). Shed
// and expired requests never ran inference: they are counted apart and
// excluded from latency, SR, and accuracy.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/transport/cloud_transport.hpp"
#include "util/timer.hpp"

namespace appeal::serve {

struct serve_stats_config {
  double latency_range_ms = 500.0;  // histogram upper edge (overflow clamps)
  std::size_t latency_bins = 5000;  // 0.1 ms resolution at the default range
  /// Value of the {deployment=...} label on this deployment's request
  /// instruments (appeal_requests_total and friends, the
  /// appeal_latency_ms summary). Empty = unlabeled, in a registry of the
  /// owner's own (see owner_registry()).
  std::string deployment;
};

/// The registry an owner — a deployment or a standalone engine — counts
/// into: the process-wide obs::default_registry() when it has a
/// deployment name to label its instruments with; otherwise `own`, built
/// on first use, so two unnamed owners alive at once never merge counts
/// (and have nothing to be exported under).
obs::metrics_registry& owner_registry(
    const std::string& deployment,
    std::unique_ptr<obs::metrics_registry>& own);

/// The deployment's counters over one window (see serve_stats).
struct stats_snapshot {
  std::size_t completed = 0;     // requests that produced a prediction
  std::size_t edge_kept = 0;     // route::edge (score >= δ)
  std::size_t edge_degraded = 0; // route::edge_degraded (admission pinned)
  std::size_t appealed = 0;      // route::cloud
  std::size_t shed = 0;          // refused at admission (status::shed)
  std::size_t expired = 0;       // deadline passed before an edge worker
  std::size_t cloud_expired = 0; // appealed, then shed in the cloud's queue
  std::size_t overflow = 0;      // latencies beyond the histogram range
  std::size_t labeled = 0;
  std::size_t labeled_correct = 0;
  std::size_t cloud_labeled = 0;         // appealed requests with labels
  std::size_t cloud_labeled_correct = 0; // ...answered correctly (cloud path)

  double elapsed_seconds = 0.0;
  double throughput_rps = 0.0;   // completed / elapsed
  double achieved_sr = 0.0;      // (edge_kept + edge_degraded) / completed
  double shed_rate = 0.0;        // (shed + expired + cloud_expired) / submitted
  double online_accuracy = 0.0;  // labeled_correct / labeled
  double cloud_accuracy = 0.0;   // cloud_labeled_correct / cloud_labeled
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_queue_ms = 0.0;    // enqueue -> batch pull
  double mean_link_ms = 0.0;     // uplink + cloud time over appeals
  /// Cloud-reported queue wait + scoring time over appeals (socket
  /// transports report it per response; 0 under the simulator).
  double mean_cloud_ms = 0.0;

  // Cloud-link counters, read from the link's instruments (link_metrics)
  // over the same window as everything else.
  std::size_t appeal_batches = 0;       // framed batches on the wire
  std::size_t appeals_on_wire = 0;      // appeals those batches carried
  double mean_appeals_per_batch = 0.0;  // coalescing factor
  std::size_t wire_bytes_tx = 0;        // appeal frames (or sim-equivalent)
  std::size_t wire_bytes_rx = 0;        // response frames
  std::size_t link_fallbacks = 0;       // appeals answered locally (link down)
  std::size_t appeal_retries = 0;       // overloaded appeals re-sent
  std::size_t appeal_overloaded = 0;    // overloaded answers received
  std::size_t breaker_opens = 0;        // circuit-breaker trips
  std::uint8_t breaker_state = 0;       // 0 closed / 1 open / 2 half-open
  std::size_t split_appeals = 0;        // appeals shipped as feature maps
  std::size_t split_bytes_saved = 0;    // uplink bytes saved vs raw input
  std::size_t split_rejected = 0;       // split appeals the cloud rejected
  std::uint32_t split_cut = 0;          // active cut id (0 = raw input)

  /// Everything that entered submit() and has completed by now (any
  /// status): completed + shed + expired + cloud_expired — shed_rate's
  /// denominator, exported so consumers never have to re-derive it.
  std::size_t submitted = 0;
};

class serve_stats {
 public:
  /// Resolves the request instruments in `registry` under
  /// {deployment=cfg.deployment} and views `link`'s alongside them. The
  /// first window opens here.
  serve_stats(const serve_stats_config& cfg, obs::metrics_registry& registry,
              const link_metrics& link);

  /// Records one finished request: a few relaxed sharded fetch_adds and
  /// one histogram observation. Responses with a non-ok status are
  /// counted as shed/expired and touch no other statistic; `correct` is
  /// ignored when the request carried no label.
  void record(const response& r, bool labeled, bool correct);

  /// Opens a new window: records the current value of every instrument
  /// and restarts the clock — used to discard a warmup phase. Call with
  /// no requests in flight, from the thread that takes the snapshots.
  void reset();

  /// The window since construction or the last reset().
  stats_snapshot snapshot() const;

  /// Multi-line human-readable rendering of a snapshot.
  static std::string render(const stats_snapshot& s);

  /// The registry this deployment counts into (its engine shards label
  /// their pipeline ledgers there too).
  obs::metrics_registry& registry() const { return registry_; }

 private:
  /// The counters a window differences, indexing counters_ and base_:
  /// the request counters, then the link's.
  enum counter_id : std::size_t {
    kSubmitted, kCompleted, kEdge, kDegraded, kAppealed, kShed, kExpired,
    kCloudExpired, kLabeled, kCorrect, kCloudLabeled, kCloudCorrect,
    kQueueUs, kLinkUs, kCloudUs,
    kBatches, kAppeals, kTxBytes, kRxBytes, kFallbacks, kRetries,
    kOverloaded, kBreakerOpens, kSplitAppeals, kSplitBytesSaved,
    kSplitRejected, kCounters
  };
  using readings = std::array<std::uint64_t, kCounters>;

  void bump(counter_id id, std::uint64_t n = 1) { counters_[id]->add(n); }
  readings read() const;

  obs::metrics_registry& registry_;
  std::array<obs::counter*, kCounters> counters_{};
  obs::histogram& latency_;
  obs::gauge& breaker_;
  obs::gauge& split_cut_;
  util::stopwatch clock_;
  readings base_{};
  obs::histogram::snapshot_data latency_base_;
};

}  // namespace appeal::serve
