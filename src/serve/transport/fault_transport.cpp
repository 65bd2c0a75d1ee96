#include "serve/transport/fault_transport.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace appeal::serve {

namespace {

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  APPEAL_CHECK(end != nullptr && *end == '\0' && !value.empty(),
               "fault spec: '" + key + "' wants a number, got '" + value +
                   "'");
  return v;
}

double parse_probability(const std::string& key, const std::string& value) {
  const double p = parse_double(key, value);
  APPEAL_CHECK(p >= 0.0 && p <= 1.0,
               "fault spec: '" + key + "' must be a probability in [0, 1]");
  return p;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const double v = parse_double(key, value);
  APPEAL_CHECK(v >= 0.0, "fault spec: '" + key + "' must be non-negative");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

fault_config parse_fault_spec(const std::string& spec) {
  fault_config cfg;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    APPEAL_CHECK(eq != std::string::npos,
                 "fault spec entry '" + entry + "' is not key=value");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "drop") {
      cfg.drop = parse_probability(key, value);
    } else if (key == "delay_ms") {
      cfg.delay_ms = parse_double(key, value);
      APPEAL_CHECK(cfg.delay_ms >= 0.0, "fault spec: delay_ms must be >= 0");
    } else if (key == "trunc") {
      cfg.trunc = parse_probability(key, value);
    } else if (key == "dup") {
      cfg.dup = parse_probability(key, value);
    } else if (key == "kill_at") {
      cfg.kill_at = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "seed") {
      cfg.seed = parse_u64(key, value);
    } else {
      throw util::error("fault spec: unknown key '" + key +
                        "' (want drop|delay_ms|trunc|dup|kill_at|seed)");
    }
  }
  return cfg;
}

fault_transport::fault_transport(std::unique_ptr<cloud_transport> inner,
                                 fault_config cfg)
    : inner_(std::move(inner)),
      config_(cfg),
      send_rng_(cfg.seed),
      recv_rng_(cfg.seed ^ 0x9E3779B97F4A7C15ULL) {
  APPEAL_CHECK(inner_ != nullptr, "fault_transport needs an inner transport");
}

fault_transport::~fault_transport() { stop(); }

void fault_transport::start(completion_sink on_complete,
                            failure_sink on_failure) {
  APPEAL_CHECK(on_complete != nullptr && on_failure != nullptr,
               "fault_transport needs completion and failure sinks");
  inner_->start(
      [this, sink = std::move(on_complete)](
          std::vector<completion>&& done) {
        bool duplicate = false;
        if (config_.dup > 0.0) {
          std::lock_guard<std::mutex> lock(recv_mutex_);
          duplicate = recv_rng_.bernoulli(config_.dup);
        }
        if (duplicate) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            faults_.duplicated += 1;
          }
          std::vector<completion> copy = done;
          sink(std::move(copy));
        }
        sink(std::move(done));
      },
      std::move(on_failure));
}

std::size_t fault_transport::send_batch(
    const std::vector<const request*>& batch,
    const std::vector<std::uint64_t>& wire_ids, const std::string& model) {
  std::size_t frame;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    frame = ++faults_.frames_seen;
    if (killed_) {
      throw util::error("fault_transport: connection killed by kill_at");
    }
  }
  if (config_.kill_at > 0 && frame >= config_.kill_at) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      killed_ = true;
      faults_.killed = 1;
    }
    APPEAL_LOG_WARN("fault_transport")
        << "killing the connection" << util::kv("frame", frame);
    // Like a peer reset mid-write: the link is gone, the send fails. The
    // inner stop() suppresses its own on_failure (it looks like a local
    // shutdown), so the thrown error is the one signal the channel gets.
    inner_->stop();
    throw util::error("fault_transport: connection killed at frame " +
                      std::to_string(frame));
  }
  if (config_.delay_ms > 0.0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      faults_.delayed += 1;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(config_.delay_ms));
  }
  if (config_.drop > 0.0 && send_rng_.bernoulli(config_.drop)) {
    std::lock_guard<std::mutex> lock(mutex_);
    faults_.dropped += 1;
    return 0;  // the frame vanishes; the watchdog owns the fallout
  }
  if (config_.trunc > 0.0 && batch.size() > 1 &&
      send_rng_.bernoulli(config_.trunc)) {
    const std::size_t keep = batch.size() / 2;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      faults_.truncated += 1;
    }
    const std::vector<const request*> head(batch.begin(),
                                           batch.begin() + keep);
    const std::vector<std::uint64_t> head_ids(wire_ids.begin(),
                                              wire_ids.begin() + keep);
    // The tail goes unanswered, like a frame torn mid-flight.
    return inner_->send_batch(head, head_ids, model);
  }
  return inner_->send_batch(batch, wire_ids, model);
}

void fault_transport::stop() { inner_->stop(); }

fault_counters fault_transport::faults() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_;
}

}  // namespace appeal::serve
