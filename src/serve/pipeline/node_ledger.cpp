#include "serve/pipeline/node_ledger.hpp"

namespace appeal::serve::pipeline {

namespace {

obs::counter& node_counter(obs::metrics_registry& registry,
                           const char* family, const std::string& deployment,
                           const std::string& node, const char* help) {
  obs::label_set labels;
  if (!deployment.empty()) labels.emplace_back("deployment", deployment);
  labels.emplace_back("node", node);
  return registry.get_counter(family, std::move(labels), help);
}

}  // namespace

node_ledger::node_ledger(std::string name, obs::metrics_registry& registry,
                         const std::string& deployment)
    : name_(std::move(name)),
      in_(node_counter(registry, "appeal_node_in_total", deployment, name_,
                       "requests that entered this pipeline node")),
      out_(node_counter(registry, "appeal_node_out_total", deployment, name_,
                        "requests this node forwarded downstream")),
      egress_(node_counter(registry, "appeal_node_egress_total", deployment,
                           name_,
                           "requests that left the graph at this node")) {}

}  // namespace appeal::serve::pipeline
