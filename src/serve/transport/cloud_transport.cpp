#include "serve/transport/cloud_transport.hpp"

#include "serve/transport/fault_transport.hpp"
#include "serve/transport/sim_transport.hpp"
#include "serve/transport/socket_transport.hpp"
#include "util/error.hpp"

namespace appeal::serve {

transport_kind parse_transport_kind(const std::string& name) {
  if (name == "sim") return transport_kind::sim;
  if (name == "uds") return transport_kind::uds;
  if (name == "tcp") return transport_kind::tcp;
  throw util::error("unknown transport '" + name + "' (want sim|uds|tcp)");
}

const char* transport_kind_name(transport_kind kind) {
  switch (kind) {
    case transport_kind::sim:
      return "sim";
    case transport_kind::uds:
      return "uds";
    case transport_kind::tcp:
      return "tcp";
  }
  return "?";
}

namespace {

obs::label_set named(const char* key, const std::string& name) {
  if (name.empty()) return {};
  return {{key, name}};
}

}  // namespace

link_metrics::link_metrics(obs::metrics_registry& registry,
                           const std::string& name)
    : batches(registry.get_counter("appeal_wire_batches_total",
                                   named("link", name),
                                   "appeal frames written to the link")),
      appeals(registry.get_counter("appeal_wire_appeals_total",
                                   named("link", name),
                                   "appeals carried by the written frames")),
      tx_bytes(registry.get_counter("appeal_wire_tx_bytes_total",
                                    named("link", name),
                                    "appeal frame bytes written")),
      rx_bytes(registry.get_counter("appeal_wire_rx_bytes_total",
                                    named("link", name),
                                    "response frame bytes read")),
      fallbacks(registry.get_counter(
          "appeal_link_fallbacks_total", named("link", name),
          "appeals answered by the local backend (link down or refused)")),
      retries(registry.get_counter("appeal_retry_total", named("link", name),
                                   "overloaded appeals re-sent after backoff")),
      overloaded(registry.get_counter(
          "appeal_overloaded_total", named("link", name),
          "overloaded answers received from the cloud")),
      breaker_opens(registry.get_counter(
          "appeal_breaker_opens_total", named("link", name),
          "circuit-breaker closed -> open transitions")),
      breaker(registry.get_gauge(
          "appeal_breaker_state", named("link", name),
          "cloud-link circuit breaker (0 closed, 1 open, 2 half-open)")),
      split_appeals(registry.get_counter(
          "appeal_split_appeals_total", named("deployment", name),
          "appeals shipped as feature maps instead of inputs")),
      split_bytes_saved(registry.get_counter(
          "appeal_split_bytes_saved_total", named("deployment", name),
          "uplink bytes saved by shipping feature maps instead of inputs")),
      split_rejected(registry.get_counter(
          "appeal_split_rejected_total", named("deployment", name),
          "split appeals the cloud could not score as sent")),
      split_cut(registry.get_gauge(
          "appeal_split_cut", named("deployment", name),
          "active split-computing cut id (0 = raw-input appeals)")) {}

std::unique_ptr<cloud_transport> make_cloud_transport(
    const link_config& cfg, cloud_backend& fallback,
    const collab::cost_model& link, const link_metrics& metrics,
    std::uint64_t fault_salt) {
  std::unique_ptr<cloud_transport> transport;
  switch (cfg.transport) {
    case transport_kind::sim:
      transport = std::make_unique<sim_transport>(fallback, link,
                                                  cfg.time_scale, metrics);
      break;
    case transport_kind::uds:
    case transport_kind::tcp:
      transport = std::make_unique<socket_transport>(
          cfg.transport, cfg.endpoint, metrics, cfg.response_timeout_ms);
      break;
  }
  APPEAL_CHECK(transport != nullptr, "unreachable transport kind");
  if (!cfg.fault.empty()) {
    fault_config fault = parse_fault_spec(cfg.fault);
    // Decorrelate the fault plan from reconnects (still deterministic:
    // the same run reconnects at the same epochs).
    fault.seed ^= fault_salt * 0x9E3779B97F4A7C15ULL;
    transport = std::make_unique<fault_transport>(std::move(transport),
                                                  fault);
  }
  return transport;
}

}  // namespace appeal::serve
