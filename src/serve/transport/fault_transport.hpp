// Deterministic fault injection around any cloud_transport.
//
// A fault_transport decorates the real link and misbehaves on a seeded
// schedule, so chaos runs are scriptable and bit-reproducible:
//   - drop:     an appeal frame silently vanishes (the edge's response
//               watchdog eventually trips and the breaker recovers);
//   - delay_ms: every forwarded frame waits first (send-side latency —
//               it blocks the coalescing thread, which is exactly the
//               backpressure a congested link applies);
//   - trunc:    only a prefix of the frame's appeals is forwarded (a
//               torn frame at batch granularity; the tail goes
//               unanswered);
//   - dup:      a completion batch is delivered twice (the channel's
//               wire-id demux must drop the second copy);
//   - kill_at:  the Nth appeal frame kills the connection — the inner
//               transport stops and the send throws, like a peer reset
//               mid-write.
//
// Spec grammar (engine_config link.fault / bench_serving --fault=...):
//   "drop=0.05,delay_ms=1,trunc=0.02,dup=0.02,kill_at=40,seed=7"
// Probabilities are per-frame Bernoulli draws from util::rng streams
// derived from `seed`; the same seed and traffic order reproduce the
// same faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "serve/transport/cloud_transport.hpp"
#include "util/rng.hpp"

namespace appeal::serve {

struct fault_config {
  double drop = 0.0;      // P(drop an appeal frame)
  double delay_ms = 0.0;  // added latency before every forwarded frame
  double trunc = 0.0;     // P(forward only the first half of a frame)
  double dup = 0.0;       // P(deliver a completion batch twice)
  std::size_t kill_at = 0;  // kill the connection at this frame (0 = never)
  std::uint64_t seed = 1;
};

/// Parses the "k=v,k=v" fault spec; throws util::error on unknown keys,
/// malformed numbers, or probabilities outside [0, 1].
fault_config parse_fault_spec(const std::string& spec);

/// What the decorator actually injected (introspection for tests and the
/// chaos bench log).
struct fault_counters {
  std::size_t frames_seen = 0;
  std::size_t dropped = 0;
  std::size_t delayed = 0;
  std::size_t truncated = 0;
  std::size_t duplicated = 0;
  std::size_t killed = 0;  // 0 or 1
};

class fault_transport : public cloud_transport {
 public:
  fault_transport(std::unique_ptr<cloud_transport> inner, fault_config cfg);
  ~fault_transport() override;

  void start(completion_sink on_complete, failure_sink on_failure) override;
  std::size_t send_batch(const std::vector<const request*>& batch,
                         const std::vector<std::uint64_t>& wire_ids,
                         const std::string& model) override;
  void stop() override;

  fault_counters faults() const;

 private:
  std::unique_ptr<cloud_transport> inner_;
  fault_config config_;
  /// Send-side draws happen on the channel's coalescing thread only (the
  /// send_batch contract); completion-side draws on the inner transport's
  /// reader thread. Separate streams keep both deterministic regardless
  /// of interleaving.
  util::rng send_rng_;
  util::rng recv_rng_;
  std::mutex recv_mutex_;  // recv_rng_ + duplicated counter
  bool killed_ = false;
  mutable std::mutex mutex_;  // fault counters
  fault_counters faults_;
};

}  // namespace appeal::serve
