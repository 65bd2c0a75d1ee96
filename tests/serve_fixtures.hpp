// Fixtures the serving test suites share: a synthetic little/big
// population, a fast engine configuration, and socket paths no other
// test uses.
#pragma once

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/transport/stub_server.hpp"
#include "util/rng.hpp"

namespace appeal::fixtures {

struct population {
  std::vector<std::size_t> labels;
  std::vector<std::size_t> little;
  std::vector<std::size_t> big;
  std::vector<double> scores;
};

/// Synthetic workload mirroring the offline test fixtures: a little model
/// that is right `little_accuracy` of the time, a big model right ~97%,
/// and scores correlated with little-correctness (easy inputs score
/// high).
inline population make_population(std::size_t n, std::uint64_t seed,
                                  double little_accuracy = 0.8) {
  util::rng gen(seed);
  population p;
  p.labels.resize(n);
  p.little.resize(n);
  p.big.resize(n);
  p.scores.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.labels[i] = i % 10;
    const bool little_right = gen.bernoulli(little_accuracy);
    p.little[i] = little_right ? p.labels[i] : (p.labels[i] + 1) % 10;
    p.big[i] = gen.bernoulli(0.97) ? p.labels[i] : (p.labels[i] + 2) % 10;
    p.scores[i] = little_right ? 0.5 + 0.5 * gen.uniform()
                               : 0.7 * gen.uniform();
  }
  return p;
}

/// Small batches, two workers, no simulated delays.
inline serve::engine_config fast_config() {
  serve::engine_config cfg;
  cfg.batching.max_batch_size = 16;
  cfg.batching.max_wait = std::chrono::microseconds(200);
  cfg.num_workers = 2;
  cfg.queue_capacity = 256;
  cfg.channel.time_scale = 0.0;
  return cfg;
}

/// A Unix-socket path unique to this process and call.
inline std::string unique_uds_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/appeal-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A stub listening on a fresh Unix socket.
inline serve::stub_server_config uds_stub(const char* tag) {
  serve::stub_server_config cfg;
  cfg.kind = serve::transport_kind::uds;
  cfg.endpoint = unique_uds_path(tag);
  return cfg;
}

/// A cloud link to the stub listening at `endpoint`.
inline serve::link_config uds_link(const std::string& endpoint) {
  serve::link_config cfg;
  cfg.transport = serve::transport_kind::uds;
  cfg.endpoint = endpoint;
  return cfg;
}

}  // namespace appeal::fixtures
