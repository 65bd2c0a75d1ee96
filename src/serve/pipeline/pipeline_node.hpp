// Pipeline-node framework: the stages the serving engine is composed of.
//
// A pipeline_node is one stage of the serving dataflow — it owns its
// worker thread(s) and pops work items off its input node_queue, pushing
// results into the next node's queue. Nodes are assembled into a
// pipeline_graph in topological order (upstream first); the graph drives
// the lifecycle:
//
//   start_all()       — spawn every node's threads, downstream first, so
//                       a consumer is always running before its producer
//                       can fill the connecting queue;
//   drain_and_stop()  — for each node in topological order: close its
//                       input edge, then join its threads. Because a
//                       closed node_queue drains before reporting closed,
//                       every item a node emitted before its input closed
//                       is consumed downstream before THAT node's input
//                       closes — shutdown loses nothing.
//
// Request conservation is a per-node ledger: every item entering a node
// counts `in`, every item forwarded downstream counts `out`, and every
// request that LEAVES the graph at this node (its promise fulfilled)
// counts `egress`. Once drained, in == out + egress at every node, each
// node's out equals the next node's in, and the sum of all egress equals
// the engine's submitted count. The ledger lives in the owner's metrics
// registry and nowhere else (`appeal_node_in_total` /
// `appeal_node_out_total` / `appeal_node_egress_total`, labeled
// {deployment=...,node=...}), so tests read the same books the loopback
// CI job checks on a live scrape — a stranded item shows up as a node
// whose books do not balance. The shards of one deployment share a
// node's instruments: the ledger is per deployment.
//
// Counters count REQUESTS, not batches: a node whose items are batches
// bumps the ledger by the number of member requests, so the ledger is
// comparable across nodes that batch and nodes that do not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace appeal::serve::pipeline {

/// Point-in-time view of one node's conservation ledger.
struct node_stats {
  std::string name;
  std::uint64_t in = 0;      // requests that entered the node
  std::uint64_t out = 0;     // requests forwarded downstream
  std::uint64_t egress = 0;  // requests completed (promise fulfilled) here
};

class pipeline_node {
 public:
  /// The ledger is registered in `registry`; `deployment` labels it
  /// (empty = unlabeled).
  pipeline_node(std::string name, obs::metrics_registry& registry,
                const std::string& deployment);
  virtual ~pipeline_node() = default;

  pipeline_node(const pipeline_node&) = delete;
  pipeline_node& operator=(const pipeline_node&) = delete;

  /// Spawns the node's worker threads. Passive nodes (driven by upstream
  /// callers, e.g. ingress) make this a no-op.
  virtual void start() = 0;

  /// Closes the node's input edge: workers finish what is already queued
  /// and exit. Must be callable more than once.
  virtual void close_input() = 0;

  /// Joins the node's worker threads; called after close_input(), when
  /// the input has drained.
  virtual void join() = 0;

  const std::string& name() const { return name_; }

  /// The ledger as the node's instruments read now.
  node_stats stats() const {
    return {name_, metric_in_.value(), metric_out_.value(),
            metric_egress_.value()};
  }

 protected:
  // The ledger. Called from worker threads; wait-free.
  void count_in(std::uint64_t n = 1) { metric_in_.add(n); }
  void count_out(std::uint64_t n = 1) { metric_out_.add(n); }
  void count_egress(std::uint64_t n = 1) { metric_egress_.add(n); }

 private:
  std::string name_;
  obs::counter& metric_in_;
  obs::counter& metric_out_;
  obs::counter& metric_egress_;
};

/// The assembled dataflow. Nodes are added in topological order
/// (ingress first, sinks last); the graph does not own them — the engine
/// declares the nodes as members (so declaration order handles
/// destruction) and registers them here for lifecycle + stats.
class pipeline_graph {
 public:
  /// Registers the next node in topological order.
  void add(pipeline_node& node) { nodes_.push_back(&node); }

  /// Starts every node, downstream first (reverse topological order), so
  /// consumers are live before producers can block on a full queue with
  /// nobody draining it.
  void start_all();

  /// Topological drain: close each node's input, join it, move on. When
  /// this returns every queue is empty and every thread joined.
  /// Idempotent.
  void drain_and_stop();

  std::vector<node_stats> stats() const;

  const std::vector<pipeline_node*>& nodes() const { return nodes_; }

 private:
  std::vector<pipeline_node*> nodes_;
  bool stopped_ = false;
};

}  // namespace appeal::serve::pipeline
