#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace appeal::serve {

namespace {

std::size_t scaled_limit(std::size_t capacity, double factor) {
  const double raw = std::ceil(static_cast<double>(capacity) * factor);
  return std::max<std::size_t>(1, static_cast<std::size_t>(raw));
}

const char* policy_name(admission_policy p) {
  switch (p) {
    case admission_policy::block:
      return "block";
    case admission_policy::shed:
      return "shed";
    case admission_policy::edge_only:
      return "edge_only";
  }
  return "unknown";
}

obs::counter& verdict_counter(obs::metrics_registry& registry,
                              const std::string& deployment,
                              admission_policy p, const char* verdict) {
  obs::label_set labels;
  if (!deployment.empty()) labels.emplace_back("deployment", deployment);
  labels.emplace_back("policy", policy_name(p));
  labels.emplace_back("verdict", verdict);
  return registry.get_counter("appeal_admission_total", std::move(labels),
                              "admission verdicts at submit(), by policy");
}

}  // namespace

admission_controller::admission_controller(const admission_config& cfg,
                                           obs::metrics_registry& registry,
                                           const std::string& deployment)
    : config_(cfg),
      metric_admitted_(
          verdict_counter(registry, deployment, cfg.policy, "admitted")),
      metric_degraded_(
          verdict_counter(registry, deployment, cfg.policy, "degraded")),
      metric_shed_(verdict_counter(registry, deployment, cfg.policy, "shed")) {
  APPEAL_CHECK(cfg.batch_headroom > 0.0 && cfg.batch_headroom <= 1.0,
               "batch_headroom must be in (0, 1]");
  APPEAL_CHECK(cfg.degrade_headroom >= 1.0,
               "degrade_headroom must be >= 1");
  APPEAL_CHECK(cfg.pressure_batch_scale > 0.0 &&
                   cfg.pressure_batch_scale <= 1.0,
               "pressure_batch_scale must be in (0, 1]");
  APPEAL_CHECK(cfg.pressure_degrade_fraction > 0.0 &&
                   cfg.pressure_degrade_fraction <= 1.0,
               "pressure_degrade_fraction must be in (0, 1]");
}

admission_verdict admission_controller::count(admission_verdict v) {
  switch (v) {
    case admission_verdict::admitted:
      metric_admitted_.add(1);
      break;
    case admission_verdict::degraded:
      metric_degraded_.add(1);
      break;
    case admission_verdict::shed:
      metric_shed_.add(1);
      break;
    case admission_verdict::closed:
      break;
  }
  return v;
}

admission_verdict admission_controller::try_admit(request_queue& queue,
                                                  request& r) {
  const bool pressured = pressure_.load(std::memory_order_relaxed);
  std::size_t class_limit =
      r.priority == priority_class::batch
          ? scaled_limit(queue.capacity(),
                         config_.batch_headroom *
                             (pressured ? config_.pressure_batch_scale : 1.0))
          : queue.capacity();
  if (pressured && config_.policy == admission_policy::edge_only &&
      r.priority != priority_class::batch) {
    // Under cloud pressure interactive traffic degrades to the edge
    // early: filling the queue with appeals bound for an overloaded
    // uplink only converts backlog into retries.
    class_limit =
        scaled_limit(queue.capacity(), config_.pressure_degrade_fraction);
  }

  if (config_.policy == admission_policy::block) {
    // Backpressure for every class: the queue's own wait is the policy
    // (batch producers wait at their lower headroom limit).
    if (!queue.push(std::move(r), class_limit)) {
      return count(admission_verdict::closed);
    }
    return count(admission_verdict::admitted);
  }

  switch (queue.try_push(std::move(r), class_limit)) {
    case request_queue::push_result::ok:
      return count(admission_verdict::admitted);
    case request_queue::push_result::closed:
      return count(admission_verdict::closed);
    case request_queue::push_result::full:
      break;
  }

  if (config_.policy == admission_policy::edge_only &&
      r.priority != priority_class::batch) {
    // The degrade overflow band is reserved for interactive traffic:
    // batch-class requests stay capped at their headroom in every policy.
    r.force_edge = true;
    const std::size_t overflow =
        scaled_limit(queue.capacity(), config_.degrade_headroom);
    switch (queue.try_push(std::move(r), overflow)) {
      case request_queue::push_result::ok:
        return count(admission_verdict::degraded);
      case request_queue::push_result::closed:
        return count(admission_verdict::closed);
      case request_queue::push_result::full:
        r.force_edge = false;
        break;
    }
  }

  return count(admission_verdict::shed);
}

}  // namespace appeal::serve
