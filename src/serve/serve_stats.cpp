#include "serve/serve_stats.hpp"

#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace appeal::serve {

namespace {

obs::label_set deployment_labels(const std::string& deployment) {
  if (deployment.empty()) return {};
  return {{"deployment", deployment}};
}

/// Cost sums are counted in whole microseconds; the rounding error of a
/// mean over many requests is far below the 1 µs a render shows.
std::uint64_t to_us(double ms) {
  return ms > 0.0 ? static_cast<std::uint64_t>(std::llround(ms * 1e3)) : 0;
}

/// num / den (scaled), 0 when nothing was counted.
double ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0) {
  return den == 0 ? 0.0
                  : scale * static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

obs::metrics_registry& owner_registry(
    const std::string& deployment,
    std::unique_ptr<obs::metrics_registry>& own) {
  if (!deployment.empty()) return obs::default_registry();
  if (own == nullptr) own = std::make_unique<obs::metrics_registry>();
  return *own;
}

serve_stats::serve_stats(const serve_stats_config& cfg,
                         obs::metrics_registry& registry,
                         const link_metrics& link)
    : registry_(registry),
      latency_(registry.get_histogram(
          "appeal_latency_ms", deployment_labels(cfg.deployment), 0.0,
          cfg.latency_range_ms, cfg.latency_bins,
          "end-to-end latency of completed requests")),
      breaker_(link.breaker),
      split_cut_(link.split_cut) {
  APPEAL_CHECK(cfg.latency_range_ms > 0.0, "latency range must be positive");
  const obs::label_set labels = deployment_labels(cfg.deployment);
  const auto own = [&](counter_id id, const char* name, const char* help) {
    counters_[id] = &registry.get_counter(name, labels, help);
  };
  own(kSubmitted, "appeal_requests_total",
      "requests that entered submit() and have completed (any status)");
  own(kCompleted, "appeal_completed_total",
      "requests that produced a prediction");
  own(kEdge, "appeal_edge_total",
      "requests answered on the edge (score >= delta or degraded)");
  own(kDegraded, "appeal_degraded_total",
      "requests admission pinned to the edge (route edge_degraded)");
  own(kAppealed, "appeal_appealed_total", "requests appealed to the cloud");
  own(kShed, "appeal_shed_total", "requests refused at admission");
  own(kExpired, "appeal_expired_total",
      "requests whose deadline passed before an edge worker");
  own(kCloudExpired, "appeal_cloud_expired_requests_total",
      "appealed requests shed in the cloud's work queue");
  own(kLabeled, "appeal_labeled_total",
      "completed requests that carried a ground-truth label");
  own(kCorrect, "appeal_correct_total",
      "labeled requests answered correctly");
  own(kCloudLabeled, "appeal_cloud_labeled_total",
      "appealed requests that carried a ground-truth label");
  own(kCloudCorrect, "appeal_cloud_correct_total",
      "labeled appeals the cloud path answered correctly");
  own(kQueueUs, "appeal_queue_wait_us_total",
      "summed enqueue-to-batch wait of completed requests (us)");
  own(kLinkUs, "appeal_link_us_total",
      "summed uplink + cloud round trip of appealed requests (us)");
  own(kCloudUs, "appeal_cloud_us_total",
      "summed cloud-reported queue wait + scoring of appeals (us)");
  counters_[kBatches] = &link.batches;
  counters_[kAppeals] = &link.appeals;
  counters_[kTxBytes] = &link.tx_bytes;
  counters_[kRxBytes] = &link.rx_bytes;
  counters_[kFallbacks] = &link.fallbacks;
  counters_[kRetries] = &link.retries;
  counters_[kOverloaded] = &link.overloaded;
  counters_[kBreakerOpens] = &link.breaker_opens;
  counters_[kSplitAppeals] = &link.split_appeals;
  counters_[kSplitBytesSaved] = &link.split_bytes_saved;
  counters_[kSplitRejected] = &link.split_rejected;
  reset();
}

void serve_stats::record(const response& r, bool labeled, bool correct) {
  bump(kSubmitted);
  if (r.status == request_status::shed) {
    bump(kShed);
    return;
  }
  if (r.status == request_status::expired) {
    // route::cloud means the request DID appeal and the cloud's scheduler
    // shed it (deadline blown in its work queue) — count it apart from
    // edge-side expiry so deadline pressure on the link is visible.
    bump(r.taken == route::cloud ? kCloudExpired : kExpired);
    return;
  }
  bump(kCompleted);
  bump(kQueueUs, to_us(r.queue_ms));
  switch (r.taken) {
    case route::edge:
      bump(kEdge);
      break;
    case route::edge_degraded:
      bump(kEdge);
      bump(kDegraded);
      break;
    case route::cloud:
      bump(kAppealed);
      bump(kLinkUs, to_us(r.link_ms));
      bump(kCloudUs, to_us(r.cloud_ms));
      if (labeled) {
        bump(kCloudLabeled);
        if (correct) bump(kCloudCorrect);
      }
      break;
  }
  if (labeled) {
    bump(kLabeled);
    if (correct) bump(kCorrect);
  }
  latency_.observe(r.latency_ms);
}

serve_stats::readings serve_stats::read() const {
  readings now{};
  for (std::size_t i = 0; i < kCounters; ++i) now[i] = counters_[i]->value();
  return now;
}

void serve_stats::reset() {
  base_ = read();
  latency_base_ = latency_.snapshot();
  clock_.reset();
}

stats_snapshot serve_stats::snapshot() const {
  readings d = read();
  for (std::size_t i = 0; i < kCounters; ++i) d[i] -= base_[i];
  obs::histogram::snapshot_data latency = latency_.snapshot();
  for (std::size_t i = 0; i < latency.counts.size(); ++i) {
    latency.counts[i] -= latency_base_.counts[i];
  }
  latency.total -= latency_base_.total;
  latency.overflow -= latency_base_.overflow;
  latency.sum -= latency_base_.sum;

  stats_snapshot s;
  s.completed = d[kCompleted];
  // A snapshot taken mid-flight can read a degraded completion's second
  // bump without its first; never let that wrap.
  s.edge_degraded = d[kDegraded];
  s.edge_kept = d[kEdge] > d[kDegraded] ? d[kEdge] - d[kDegraded] : 0;
  s.appealed = d[kAppealed];
  s.shed = d[kShed];
  s.expired = d[kExpired];
  s.cloud_expired = d[kCloudExpired];
  s.overflow = latency.overflow;
  s.labeled = d[kLabeled];
  s.labeled_correct = d[kCorrect];
  s.cloud_labeled = d[kCloudLabeled];
  s.cloud_labeled_correct = d[kCloudCorrect];
  s.submitted = s.completed + s.shed + s.expired + s.cloud_expired;
  s.elapsed_seconds = clock_.elapsed_seconds();
  if (s.elapsed_seconds > 0.0) {
    s.throughput_rps = static_cast<double>(s.completed) / s.elapsed_seconds;
  }
  s.achieved_sr = ratio(d[kEdge], d[kCompleted]);
  s.mean_queue_ms = ratio(d[kQueueUs], d[kCompleted], 1e-3);
  s.shed_rate = ratio(s.shed + s.expired + s.cloud_expired, s.submitted);
  s.online_accuracy = ratio(d[kCorrect], d[kLabeled]);
  s.cloud_accuracy = ratio(d[kCloudCorrect], d[kCloudLabeled]);
  s.mean_link_ms = ratio(d[kLinkUs], d[kAppealed], 1e-3);
  s.mean_cloud_ms = ratio(d[kCloudUs], d[kAppealed], 1e-3);
  s.p50_ms = latency.quantile(0.50);
  s.p95_ms = latency.quantile(0.95);
  s.p99_ms = latency.quantile(0.99);

  s.appeal_batches = d[kBatches];
  s.appeals_on_wire = d[kAppeals];
  s.mean_appeals_per_batch = ratio(d[kAppeals], d[kBatches]);
  s.wire_bytes_tx = d[kTxBytes];
  s.wire_bytes_rx = d[kRxBytes];
  s.link_fallbacks = d[kFallbacks];
  s.appeal_retries = d[kRetries];
  s.appeal_overloaded = d[kOverloaded];
  s.breaker_opens = d[kBreakerOpens];
  s.breaker_state = static_cast<std::uint8_t>(breaker_.value());
  s.split_appeals = d[kSplitAppeals];
  s.split_bytes_saved = d[kSplitBytesSaved];
  s.split_rejected = d[kSplitRejected];
  s.split_cut = static_cast<std::uint32_t>(split_cut_.value());
  return s;
}

std::string serve_stats::render(const stats_snapshot& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "completed        : %zu (edge %zu / degraded %zu / cloud %zu)\n"
      "shed             : %zu admission + %zu expired + %zu cloud-expired "
      "(%.2f%% of %zu submitted)\n"
      "throughput       : %.0f req/s over %.2f s\n"
      "latency          : p50 %.3f ms  p95 %.3f ms  p99 %.3f ms (%zu overflow)\n"
      "mean queue wait  : %.3f ms\n"
      "mean link time   : %.3f ms (appealed requests)\n"
      "achieved SR      : %.2f%%\n"
      "online accuracy  : %.2f%% (%zu labeled)\n",
      s.completed, s.edge_kept, s.edge_degraded, s.appealed, s.shed,
      s.expired, s.cloud_expired, s.shed_rate * 100.0, s.submitted,
      s.throughput_rps, s.elapsed_seconds, s.p50_ms, s.p95_ms, s.p99_ms,
      s.overflow, s.mean_queue_ms, s.mean_link_ms, s.achieved_sr * 100.0,
      s.online_accuracy * 100.0, s.labeled);
  std::string out(buf);
  if (s.cloud_labeled > 0) {
    std::snprintf(buf, sizeof(buf),
                  "cloud accuracy   : %.2f%% (%zu labeled appeals)\n",
                  s.cloud_accuracy * 100.0, s.cloud_labeled);
    out += buf;
  }
  if (s.appeal_batches > 0 || s.link_fallbacks > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "cloud link       : %zu appeals in %zu batches "
        "(%.2f appeals/batch), %zu B up / %zu B down, mean cloud %.3f ms, "
        "%zu local fallbacks\n",
        s.appeals_on_wire, s.appeal_batches, s.mean_appeals_per_batch,
        s.wire_bytes_tx, s.wire_bytes_rx, s.mean_cloud_ms, s.link_fallbacks);
    out += buf;
  }
  if (s.appeal_overloaded > 0 || s.appeal_retries > 0 || s.breaker_opens > 0) {
    static const char* kBreakerNames[] = {"closed", "open", "half-open"};
    const char* state =
        s.breaker_state < 3 ? kBreakerNames[s.breaker_state] : "?";
    std::snprintf(buf, sizeof(buf),
                  "link robustness  : %zu overloaded answers, %zu retries, "
                  "%zu breaker opens (breaker %s)\n",
                  s.appeal_overloaded, s.appeal_retries, s.breaker_opens,
                  state);
    out += buf;
  }
  return out;
}

}  // namespace appeal::serve
