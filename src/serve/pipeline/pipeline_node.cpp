#include "serve/pipeline/pipeline_node.hpp"

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

pipeline_node::pipeline_node(std::string name,
                             obs::metrics_registry& registry,
                             const std::string& deployment)
    : name_(std::move(name)),
      metric_in_(node_counter(registry, "appeal_node_in_total", deployment,
                              name_,
                              "requests that entered this pipeline node")),
      metric_out_(node_counter(registry, "appeal_node_out_total", deployment,
                               name_,
                               "requests this node forwarded downstream")),
      metric_egress_(
          node_counter(registry, "appeal_node_egress_total", deployment,
                       name_, "requests that left the graph at this node")) {}

void pipeline_graph::start_all() {
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) (*it)->start();
}

void pipeline_graph::drain_and_stop() {
  if (stopped_) return;
  stopped_ = true;
  for (pipeline_node* node : nodes_) {
    node->close_input();
    node->join();
  }
}

std::vector<node_stats> pipeline_graph::stats() const {
  std::vector<node_stats> out;
  out.reserve(nodes_.size());
  for (const pipeline_node* node : nodes_) out.push_back(node->stats());
  return out;
}

}  // namespace appeal::serve::pipeline
