// Per-node conservation ledgers of the serving pipeline.
//
// A request crosses five pipeline nodes on its way through an engine
// shard: ingress (admission), batch_former (pulled into a batch),
// edge_infer (the two-head forward), appeal_decide (the δ decision) and
// cloud_appeal (handed to the cloud_channel). The nodes are not threads:
// the caller's thread runs ingress, and each edge worker runs the other
// four inline. A node is the boundary where a request changes hands, and
// its ledger is stamped there.
//
// Every request entering a node counts `in`, every request handed to the
// next node counts `out`, and every request that LEAVES the system at
// this node (its promise fulfilled) counts `egress`. Once drained,
// in == out + egress at every node, each node's out equals the next
// node's in, and the sum of all egress equals the engine's submitted
// count. The ledger lives in the owner's metrics registry and nowhere
// else (`appeal_node_in_total` / `appeal_node_out_total` /
// `appeal_node_egress_total`, labeled {deployment=...,node=...}), so
// tests read the same books the loopback CI job checks on a live
// scrape — a request dropped between two stamps shows up as a node whose
// books do not balance. The shards of one deployment share a node's
// instruments: the ledger is per deployment.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace appeal::serve::pipeline {

/// Point-in-time view of one node's conservation ledger.
struct node_stats {
  std::string name;
  std::uint64_t in = 0;      // requests that entered the node
  std::uint64_t out = 0;     // requests handed to the next node
  std::uint64_t egress = 0;  // requests completed (promise fulfilled) here
};

class node_ledger {
 public:
  /// The ledger is registered in `registry`; `deployment` labels it
  /// (empty = unlabeled).
  node_ledger(std::string name, obs::metrics_registry& registry,
              const std::string& deployment);

  node_ledger(const node_ledger&) = delete;
  node_ledger& operator=(const node_ledger&) = delete;

  // Wait-free; called from any thread.
  void count_in(std::uint64_t n = 1) { in_.add(n); }
  void count_out(std::uint64_t n = 1) { out_.add(n); }
  void count_egress(std::uint64_t n = 1) { egress_.add(n); }

  /// The ledger as the node's instruments read now.
  node_stats stats() const {
    return {name_, in_.value(), out_.value(), egress_.value()};
  }

 private:
  std::string name_;
  obs::counter& in_;
  obs::counter& out_;
  obs::counter& egress_;
};

}  // namespace appeal::serve::pipeline
