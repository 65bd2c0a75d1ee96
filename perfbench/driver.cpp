// The benchmark's measured process.
//
// Serves a trained AppealNet deployment through serve::server with a
// cloud_stub child process (--scorer=network, the same trained cloud
// weights) behind a Unix socket, drives it from one generator thread with
// a seeded open-loop (Poisson) arrival schedule, collects every response
// on one collector thread, and writes the raw per-request record of each
// phase plus the counters it read as one JSON document. perfbench/run.py
// turns that document into metrics; this program only measures.
//
// Untraced run (--trace=0): the deployment is set up --setups times (each
// start timed from weight load to the first answered request), then a
// warmup, the light phase, the heavy phase and every rung of the rate
// ladder run on the last one.
// Traced run (--trace=1): the light phase runs once untraced and once with
// every request sampled into obs::default_collector() spans, then the
// benchmark times the public per-layer calls itself (extractor segments,
// cloud forward/prefix/suffix, wire encode/decode).
//
// Correctness: every answered request's route and prediction must equal
// the offline reference (the served edge network on the same inputs at
// the same δ, the cloud network on the appealed ones), and the online
// accuracy and appeal counts must equal metrics::evaluate_collaborative
// over the same requests exactly.
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "artifacts.hpp"
#include "core/threshold.hpp"
#include "metrics/metrics.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quant/quantize.hpp"
#include "quant/recalibrate.hpp"
#include "serve/server.hpp"
#include "serve/transport/wire.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace {

using namespace appeal;
using clock_type = std::chrono::steady_clock;

constexpr const char* kModel = "perfbench";
constexpr double kBlockSamples = 1000.0;

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time (user + system) of another process, from /proc/<pid>/stat.
double process_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The host's CPU time so far, all of it and the part the hypervisor stole,
/// in clock ticks (the first line of /proc/stat).
struct host_cpu {
  double total = 0.0;
  double steal = 0.0;
};

host_cpu read_host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  host_cpu c;
  double v = 0.0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    c.total += v;
    if (field == 7) c.steal = v;
  }
  return c;
}

/// VmHWM: the peak resident set since start, or since the last reset
/// through /proc/self/clear_refs.
double peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

std::size_t os_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// --- workload -------------------------------------------------------------

struct workload_config {
  std::string name;
  serve::edge_precision precision = serve::edge_precision::fp32;
  double target_sr = 0.0;
  serve::split_mode split = serve::split_mode::off;
  double coalesce_ms = 0.0;
  double light_rps = 0.0;
  double heavy_rps = 0.0;
  /// Rates above heavy, climbed until one fails.
  std::vector<double> ladder_rps;
  double p99_limit_ms = 0.0;
  /// Length of each light and heavy block; `rounds` of each alternate.
  double light_block_s = 0.0;
  double heavy_block_s = 0.0;
  std::size_t rounds = 1;
  bool untrained_edge = false;
};

/// Every request's deadline: a client gives up after half a second.
constexpr double kDeadlineMs = 500.0;
/// Online accuracy every workload must reach: the trained edge and cloud
/// networks clear it, a random-init edge network does not.
constexpr double kAccuracyFloor = 0.6;
/// A ladder rung passes with at least this share of requests answered OK.
constexpr double kOkLimit = 0.999;
/// Bound on the generator's lateness p99 at the light rate.
constexpr double kMaxLatenessMs = 50.0;
/// Warm-up at a block's or rung's own rate before its measured part.
constexpr double kWarmS = 0.1;
/// Requests a ladder rung measures (its length follows from its rate),
/// and the shortest a rung may be.
constexpr double kRungSamples = 1200.0;
constexpr double kMinRungS = 1.0;
/// Tries a rung gets before it fails: on a shared host a stall of a few
/// tens of ms pushes a short rung's p99 over its limit now and then, while
/// a saturated system fails every try.
constexpr int kRungTries = 3;
/// The initial warm-up before any block.
constexpr double kWarmupS = 0.5;
/// A block during which the hypervisor stole more than kMaxSteal of the
/// host's CPU is measured again, replaying the same requests, while the
/// redone blocks fit in kRedoShare of the blocks' time (and never less than
/// the longest block): the benchmark compares builds of the program, not the
/// load of other tenants on the host. A steal of 1% already slowed a block's
/// p50 by a tenth on a shared 4-vCPU host.
constexpr double kMaxSteal = 0.01;
constexpr double kRedoShare = 0.2;

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

// --- the cloud_stub child -------------------------------------------------

class stub_process {
 public:
  stub_process(const std::string& binary, const std::string& socket,
               const std::string& weights, const std::string& log)
      : socket_(socket), log_(log) {
    std::filesystem::remove(socket_);
    const std::vector<std::string> argv_s = {
        binary, "--listen=uds:" + socket, "--scorer=network",
        "--weights=" + weights, "--workers=1"};
    pid_ = fork();
    APPEAL_CHECK(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      // The stub must not outlive the benchmark, whatever ends it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      std::vector<char*> argv;
      for (const std::string& a : argv_s) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
  }

  ~stub_process() { stop(); }
  stub_process(const stub_process&) = delete;
  stub_process& operator=(const stub_process&) = delete;

  /// Retries a connect until the stub accepts one (it binds after loading
  /// its model). Polls every 200 µs so the wait adds little to set-up.
  void wait_ready() {
    const auto give_up = clock_type::now() + std::chrono::seconds(60);
    for (;;) {
      const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
      APPEAL_CHECK(fd >= 0, "socket() failed");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
      const bool ok =
          connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
      close(fd);
      if (ok) return;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw util::error("cloud_stub exited during start-up; see " + log_);
      }
      APPEAL_CHECK(clock_type::now() < give_up, "cloud_stub never listened");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  pid_t pid() const { return pid_; }

  /// Stops the stub and returns its closing summary line.
  std::string stop() {
    if (pid_ <= 0) return "";
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    std::filesystem::remove(socket_);
    std::ifstream in(log_);
    std::string line;
    std::string summary;
    while (std::getline(in, line)) {
      if (line.rfind("cloud_stub served", 0) == 0) summary = line;
    }
    return summary;
  }

 private:
  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
};

// --- one deployment start -------------------------------------------------

struct served_system {
  std::unique_ptr<stub_process> stub;
  std::unique_ptr<serve::server> server;
  double delta = 0.0;
};

struct start_context {
  workload_config wl;
  perfbench::artifact_paths paths;
  std::string stub_binary;
  const perfbench::held_out* inputs = nullptr;
};

std::unique_ptr<core::two_head_network> load_edge(const start_context& ctx,
                                                  const tensor& calibration) {
  auto net = std::make_unique<core::two_head_network>(perfbench::edge_config());
  if (!ctx.wl.untrained_edge) net->load(ctx.paths.edge_weights);
  if (ctx.wl.precision == serve::edge_precision::int8) {
    quant::quantize_two_head(*net, calibration);
  } else {
    net->prepare_for_inference();
  }
  return net;
}

tensor load_calibration(const start_context& ctx) {
  return nn::load_tensors_dynamic(ctx.paths.calibration).at("calibration");
}

serve::cloud_model_config cloud_config(const start_context& ctx) {
  serve::cloud_model_config cfg = perfbench::big_config();
  cfg.weights_path = ctx.paths.big_weights;
  return cfg;
}

serve::deployment_config deployment_config_for(const start_context& ctx,
                                               double delta,
                                               const std::string& socket,
                                               double trace_rate) {
  serve::deployment_config cfg;
  cfg.shards = 1;
  cfg.precision = ctx.wl.precision;
  cfg.edge_weight_bits =
      ctx.wl.precision == serve::edge_precision::fp32 ? 32 : 8;
  cfg.shard.num_workers = 2;
  cfg.shard.gemm_threads = 1;
  cfg.shard.batching.max_batch_size = 16;
  cfg.shard.batching.max_wait = std::chrono::microseconds(200);
  cfg.shard.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.shard.threshold.initial_delta = delta;
  cfg.shard.channel.transport = serve::transport_kind::uds;
  cfg.shard.channel.endpoint = socket;
  cfg.shard.channel.coalesce_window_ms = ctx.wl.coalesce_ms;
  cfg.shard.trace_sample_rate = trace_rate;
  if (ctx.wl.split != serve::split_mode::off) {
    cfg.shard.channel.split.mode = ctx.wl.split;
    cfg.shard.channel.split.cuts = serve::enumerate_cloud_cuts(cloud_config(ctx));
  }
  return cfg;
}

/// Registers the deployment on a fresh server over an already-listening
/// stub and waits for its first answer.
std::unique_ptr<serve::server> start_server(const start_context& ctx,
                                            double delta,
                                            const tensor& calibration,
                                            const std::string& socket,
                                            double trace_rate) {
  auto srv = std::make_unique<serve::server>();
  const serve::cloud_model_config big = cloud_config(ctx);
  srv->register_deployment(
      kModel, deployment_config_for(ctx, delta, socket, trace_rate),
      [&ctx, &calibration](std::size_t, std::size_t) {
        return std::make_unique<serve::network_edge_backend>(
            load_edge(ctx, calibration), core::score_method::appealnet_q);
      },
      [big] {
        return std::make_unique<serve::network_cloud_backend>(
            serve::make_cloud_model(big));
      });
  serve::inference_request first;
  first.model = kModel;
  first.input = ctx.inputs->images.front();
  first.label = ctx.inputs->labels.front();
  srv->submit(std::move(first)).get();
  return srv;
}

/// One deployment start, as a deployment pays it: spawn the stub, load and
/// fold (or quantize) the edge weights, calibrate δ on the calibration
/// sample, connect, and answer a first request.
served_system start_system(const start_context& ctx, const std::string& tag,
                           double trace_rate) {
  served_system sys;
  const std::string socket = "stub-" + tag + ".sock";
  sys.stub = std::make_unique<stub_process>(ctx.stub_binary, socket,
                                            ctx.paths.big_weights,
                                            "stub-" + tag + ".log");
  const tensor calibration = load_calibration(ctx);
  const std::unique_ptr<core::two_head_network> edge = load_edge(ctx, calibration);
  if (ctx.wl.precision == serve::edge_precision::int8) {
    sys.delta = quant::quant_recalibrate(*edge, calibration, ctx.wl.target_sr).delta;
  } else {
    const quant::scored_pass pass = quant::run_scored(*edge, calibration);
    sys.delta = core::delta_for_skipping_rate(pass.scores, ctx.wl.target_sr);
  }
  sys.stub->wait_ready();
  sys.server = start_server(ctx, sys.delta, calibration, socket, trace_rate);
  return sys;
}

// --- offline reference ----------------------------------------------------

struct reference_tables {
  std::vector<std::size_t> little;
  std::vector<std::size_t> big;  // filled for appealed inputs only
  std::vector<double> scores;
  std::vector<bool> appeals;
};

tensor stack(const std::vector<tensor>& images, std::size_t begin,
             std::size_t end) {
  const shape& one = images[begin].dims();
  tensor out(shape{end - begin, one.dim(0), one.dim(1), one.dim(2)});
  const std::size_t n = images[begin].size();
  for (std::size_t i = begin; i < end; ++i) {
    std::copy(images[i].data(), images[i].data() + n,
              out.data() + (i - begin) * n);
  }
  return out;
}

/// Runs `work(thread, begin, end)` over [0, n) in chunks of `chunk`, the
/// chunks dealt round-robin to `threads` threads.
void parallel_chunks(std::size_t n, std::size_t chunk, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& work) {
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t b = t * chunk; b < n; b += threads * chunk) {
        work(t, b, std::min(n, b + chunk));
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

/// The offline reference on every input, computed on all cores: the served
/// edge network (one instance per thread, built exactly as the workers'),
/// then the cloud network on the inputs the edge appeals.
reference_tables make_reference(const start_context& ctx, double delta) {
  const perfbench::held_out& in = *ctx.inputs;
  const std::size_t n = in.images.size();
  const std::size_t threads = std::max(1U, std::thread::hardware_concurrency());
  constexpr std::size_t kChunk = 64;
  reference_tables ref;
  ref.little.resize(n);
  ref.big.resize(n);
  ref.scores.resize(n);
  ref.appeals.assign(n, false);
  const tensor calibration = load_calibration(ctx);
  std::vector<std::unique_ptr<core::two_head_network>> edges(threads);
  parallel_chunks(n, kChunk, threads, [&](std::size_t t, std::size_t b, std::size_t e) {
    if (edges[t] == nullptr) edges[t] = load_edge(ctx, calibration);
    const quant::scored_pass pass =
        quant::run_scored(*edges[t], stack(in.images, b, e), kChunk);
    for (std::size_t i = b; i < e; ++i) {
      ref.little[i] = pass.predictions[i - b];
      ref.scores[i] = pass.scores[i - b];
      ref.big[i] = ref.little[i];
    }
  });
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (ref.scores[i] < delta) {
      ref.appeals[i] = true;
      rows.push_back(i);
    }
  }
  std::vector<std::unique_ptr<serve::network_cloud_backend>> clouds(threads);
  parallel_chunks(rows.size(), kChunk, threads,
                  [&](std::size_t t, std::size_t b, std::size_t e) {
    if (clouds[t] == nullptr) {
      clouds[t] = std::make_unique<serve::network_cloud_backend>(
          serve::make_cloud_model(cloud_config(ctx)));
    }
    std::vector<const tensor*> batch;
    for (std::size_t j = b; j < e; ++j) batch.push_back(&in.images[rows[j]]);
    const std::vector<std::size_t> preds = clouds[t]->infer_batch(batch);
    for (std::size_t j = b; j < e; ++j) ref.big[rows[j]] = preds[j - b];
  });
  return ref;
}

// --- open-loop phases -----------------------------------------------------

struct phase_record {
  std::string name;
  perfbench::phase_samples s;
  std::vector<int> correct;
  std::vector<std::size_t> input;
  double gen_cpu_ms = 0.0;
  double collector_cpu_ms = 0.0;
  double process_cpu_ms = 0.0;
  double stub_cpu_ms = 0.0;
  std::size_t threads = 0;
  /// Share of the host's CPU time the hypervisor stole during the phase.
  double steal_frac = 0.0;
};

/// One open-loop phase, planned before the run starts: `rate` requests/s
/// with the arrival schedule of its slot (perfbench::slot_seed), for
/// `warm_s` + `duration_s`. Its requests use inputs first_input,
/// first_input + 1, ... (mod the input count). A phase measured again, after
/// host steal or as a rung's later try, replays exactly these requests at
/// these scheduled times.
struct phase_plan {
  std::string name;
  double rate = 0.0;
  double warm_s = 0.0;
  double duration_s = 0.0;
  std::size_t first_input = 0;
  std::vector<double> sched_ms;
};

phase_plan plan_phase(const std::string& name, double rate, double warm_s,
                      double duration_s, std::uint64_t run_seed, std::uint64_t slot,
                      std::size_t first_input) {
  return phase_plan{name, rate, warm_s, duration_s, first_input,
                    perfbench::poisson_schedule(rate, (warm_s + duration_s) * 1e3,
                                                perfbench::slot_seed(run_seed, slot))};
}

/// Runs one planned phase. The first `warm_s` only bring the queues to the
/// rate and stay out of latency statistics (they still count in answers
/// and costs). The generator gives up on a phase that runs more than half
/// its length behind schedule; the rest count as unsent.
phase_record run_phase(serve::server& srv, const perfbench::held_out& in,
                       const phase_plan& plan, pid_t stub_pid) {
  phase_record rec;
  rec.name = plan.name;
  perfbench::phase_samples& s = rec.s;
  s.rate = plan.rate;
  s.duration_ms = (plan.warm_s + plan.duration_s) * 1e3;
  s.sched_ms = plan.sched_ms;
  s.first = static_cast<std::size_t>(
      std::lower_bound(s.sched_ms.begin(), s.sched_ms.end(), plan.warm_s * 1e3) -
      s.sched_ms.begin());
  const std::size_t n = s.size();
  s.lateness_ms.assign(n, 0.0);
  s.service_ms.assign(n, 0.0);
  s.status.assign(n, perfbench::kUnsent);
  s.appealed.assign(n, 0);
  rec.correct.assign(n, 0);
  rec.input.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    rec.input[i] = (plan.first_input + i) % in.images.size();
  }

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::pair<std::size_t, std::future<serve::response>>> pending;
  bool generator_done = false;

  const double cpu_before = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
  const double stub_before = process_cpu_ms(stub_pid);
  const host_cpu host_before = read_host_cpu();
  const clock_type::time_point start =
      clock_type::now() + std::chrono::milliseconds(2);
  const double give_up_ms = s.duration_ms * 1.5;
  const auto deadline = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(kDeadlineMs));

  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const clock_type::time_point due =
          start + std::chrono::duration_cast<clock_type::duration>(
                      std::chrono::duration<double, std::milli>(s.sched_ms[i]));
      std::this_thread::sleep_until(due);
      const clock_type::time_point now = clock_type::now();
      if (ms_between(start, now) > give_up_ms) break;
      s.lateness_ms[i] = ms_between(due, now);
      serve::inference_request req;
      req.model = kModel;
      req.key = rec.input[i];
      req.input = in.images[rec.input[i]];
      req.label = in.labels[rec.input[i]];
      req.deadline = deadline;
      std::future<serve::response> fut = srv.submit(std::move(req));
      {
        const std::lock_guard<std::mutex> lock(mutex);
        pending.emplace_back(i, std::move(fut));
      }
      ready.notify_one();
    }
    rec.gen_cpu_ms = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      generator_done = true;
    }
    ready.notify_one();
  });

  std::thread collector([&] {
    for (;;) {
      std::pair<std::size_t, std::future<serve::response>> item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !pending.empty() || generator_done; });
        if (pending.empty()) break;
        item = std::move(pending.front());
        pending.pop_front();
      }
      const serve::response r = item.second.get();
      const std::size_t i = item.first;
      s.service_ms[i] = r.latency_ms;
      s.status[i] = r.status == serve::request_status::ok ? perfbench::kOk
                                                          : perfbench::kFailed;
      s.appealed[i] = r.taken == serve::route::cloud ? 1 : 0;
      rec.correct[i] = r.predicted_class == in.labels[rec.input[i]] ? 1 : 0;
    }
    rec.collector_cpu_ms = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
  });

  // Count the process's OS threads while the phase runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<long>(std::min(plan.duration_s * 500.0, 200.0))));
  rec.threads = os_threads();
  generator.join();
  collector.join();
  rec.process_cpu_ms = cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - cpu_before;
  rec.stub_cpu_ms = process_cpu_ms(stub_pid) - stub_before;
  const host_cpu host_after = read_host_cpu();
  if (host_after.total > host_before.total) {
    rec.steal_frac =
        (host_after.steal - host_before.steal) / (host_after.total - host_before.total);
  }
  srv.drain();
  return rec;
}

/// Aggregates over the phases whose answers are checked and costed.
struct phase_totals {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t correct = 0;
  std::size_t appealed = 0;
  double process_cpu_ms = 0.0;
  double gen_cpu_ms = 0.0;
  double collector_cpu_ms = 0.0;
  double stub_cpu_ms = 0.0;
};

phase_totals totals(const std::vector<const phase_record*>& phases) {
  phase_totals t;
  for (const phase_record* p : phases) {
    t.attempted += p->s.size();
    for (std::size_t i = 0; i < p->s.size(); ++i) {
      if (p->s.status[i] != perfbench::kOk) continue;
      ++t.ok;
      t.correct += static_cast<std::size_t>(p->correct[i]);
      t.appealed += static_cast<std::size_t>(p->s.appealed[i]);
    }
    t.process_cpu_ms += p->process_cpu_ms;
    t.gen_cpu_ms += p->gen_cpu_ms;
    t.collector_cpu_ms += p->collector_cpu_ms;
    t.stub_cpu_ms += p->stub_cpu_ms;
  }
  return t;
}

// --- JSON output ----------------------------------------------------------

class json_writer {
 public:
  explicit json_writer(std::FILE* f) : f_(f) {}
  void raw(const char* s) { std::fputs(s, f_); }
  void key(const std::string& k) {
    sep();
    std::fprintf(f_, "\"%s\": ", k.c_str());
    fresh_ = true;
  }
  void num(double v) {
    sep();
    if (std::isfinite(v)) {
      std::fprintf(f_, "%.10g", v);
    } else {
      std::fputs("null", f_);
    }
  }
  void integer(long long v) {
    sep();
    std::fprintf(f_, "%lld", v);
  }
  void str(const std::string& s) {
    sep();
    std::fputc('"', f_);
    for (const char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', f_);
      if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, f_);
    }
    std::fputc('"', f_);
  }
  void boolean(bool b) {
    sep();
    std::fputs(b ? "true" : "false", f_);
  }
  void open(char c) {
    sep();
    std::fputc(c, f_);
    fresh_ = true;
  }
  void close(char c) {
    std::fputc(c, f_);
    fresh_ = false;
  }
  void array(const std::vector<double>& values) {
    open('[');
    for (const double v : values) num(v);
    close(']');
  }

 private:
  void sep() {
    if (!fresh_) std::fputc(',', f_);
    fresh_ = false;
  }
  std::FILE* f_;
  bool fresh_ = true;
};

// --- correctness ------------------------------------------------------------

struct check_result {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// Online vs offline over the OK requests of `phases`: per request route
/// and correctness, and in aggregate metrics::evaluate_collaborative at
/// the served δ.
check_result check_online_offline(const std::vector<const phase_record*>& phases,
                                  const perfbench::held_out& in,
                                  const reference_tables& ref, double delta) {
  std::vector<std::size_t> little;
  std::vector<std::size_t> big;
  std::vector<std::size_t> labels;
  std::vector<double> scores;
  std::size_t online_correct = 0;
  std::size_t online_appealed = 0;
  std::size_t mismatched = 0;
  for (const phase_record* p : phases) {
    for (std::size_t i = 0; i < p->s.size(); ++i) {
      if (p->s.status[i] != perfbench::kOk) continue;
      const std::size_t k = p->input[i];
      little.push_back(ref.little[k]);
      big.push_back(ref.big[k]);
      labels.push_back(in.labels[k]);
      scores.push_back(ref.scores[k]);
      online_correct += static_cast<std::size_t>(p->correct[i]);
      online_appealed += static_cast<std::size_t>(p->s.appealed[i]);
      const std::size_t expected = ref.appeals[k] ? ref.big[k] : ref.little[k];
      const bool expected_correct = expected == in.labels[k];
      if (static_cast<bool>(p->s.appealed[i]) != ref.appeals[k] ||
          static_cast<bool>(p->correct[i]) != expected_correct) {
        ++mismatched;
      }
    }
  }
  check_result c;
  c.name = "online_equals_offline";
  if (labels.empty()) {
    c.detail = "no answered requests";
    return c;
  }
  const metrics::collaborative_outcome off = metrics::evaluate_collaborative(
      little, big, labels, scores, delta);
  const std::size_t off_correct = off.edge_correct + off.cloud_correct;
  const auto off_appealed = static_cast<std::size_t>(std::llround(
      (1.0 - off.skipping_rate) * static_cast<double>(off.total)));
  c.pass = mismatched == 0 && off_correct == online_correct &&
           off_appealed == online_appealed;
  std::ostringstream os;
  os << "online " << online_correct << " correct / " << online_appealed
     << " appealed of " << labels.size() << "; offline " << off_correct
     << " / " << off_appealed << " of " << off.total << "; " << mismatched
     << " requests differ";
  c.detail = os.str();
  return c;
}

// --- per-layer timers (traced run) ------------------------------------------

template <typename F>
double median_ms(F&& f, std::size_t reps) {
  f();  // warm the workspace
  std::vector<double> t(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const clock_type::time_point a = clock_type::now();
    f();
    t[r] = ms_between(a, clock_type::now());
  }
  std::nth_element(t.begin(), t.begin() + static_cast<long>(reps / 2), t.end());
  return t[reps / 2];
}

/// One reported metric. `samples` is the count behind a percentile or
/// mean (0 when the value is not a statistic over requests).
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::size_t parse_field(const std::string& line, const std::string& after) {
  const std::size_t at = line.find(after);
  if (at == std::string::npos) return 0;
  std::size_t pos = at;
  while (pos > 0 && line[pos - 1] == ' ') --pos;
  std::size_t begin = pos;
  while (begin > 0 && std::isdigit(static_cast<unsigned char>(line[begin - 1]))) --begin;
  return begin == pos ? 0 : std::stoul(line.substr(begin, pos - begin));
}

std::vector<metric> time_layers(const start_context& ctx,
                                     const tensor& calibration,
                                     double stub_batch, double appeals_per_batch,
                                     std::uint32_t active_cut) {
  std::vector<metric> out;
  constexpr std::size_t kReps = 200;
  constexpr std::size_t kServedBatch = 16;
  const perfbench::held_out& in = *ctx.inputs;
  const tensor batch = stack(in.images, 0, kServedBatch);

  // Edge extractor segments between its cut points, at the served precision.
  // FLOPs come from the folded fp32 network: folding and quantizing keep
  // its children and cut boundaries alike.
  const std::unique_ptr<core::two_head_network> net = load_edge(ctx, calibration);
  auto fp32 = std::make_unique<core::two_head_network>(perfbench::edge_config());
  fp32->prepare_for_inference();
  const std::vector<nn::sequential::child_report> children =
      fp32->extractor().summarize(batch.dims());
  nn::sequential& ext = net->extractor();
  std::size_t begin = 0;
  tensor act = batch;
  const std::vector<nn::cut_point> cuts = ext.cuts();
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const std::size_t end = c + 1 == cuts.size() ? ext.size() : cuts[c].boundary;
    const double ms =
        median_ms([&] { (void)ext.forward_range(act, begin, end, false); }, kReps);
    std::uint64_t flops = 0;
    for (std::size_t i = begin; i < end; ++i) flops += children[i].flops;
    out.push_back({"edge." + cuts[c].name + ".ms", ms, "ms"});
    out.push_back({"edge." + cuts[c].name + ".gflops",
                   static_cast<double>(flops) / (ms * 1e6), "GFLOP/s"});
    act = ext.forward_range(act, begin, end, false);
    begin = end;
  }
  // `act` now holds the extractor's features: time both heads on them.
  out.push_back({"edge.heads.ms", median_ms([&] {
                   (void)net->approximator_head().forward(act, false);
                   (void)net->predictor_head().forward(act, false);
                 }, kReps), "ms"});

  // Cloud network calls at the stub's mean batch and the split cut.
  const auto cloud_batch = static_cast<std::size_t>(
      std::max(1.0, std::round(stub_batch)));
  const serve::cloud_model_config big = cloud_config(ctx);
  serve::network_cloud_backend cloud(serve::make_cloud_model(big));
  std::vector<const tensor*> cloud_inputs;
  for (std::size_t i = 0; i < cloud_batch; ++i) cloud_inputs.push_back(&in.images[i]);
  out.push_back({"cloud.forward_ms",
                 median_ms([&] { (void)cloud.infer_batch(cloud_inputs); }, kReps), "ms"});
  const std::uint32_t cut =
      active_cut > 0 ? active_cut
                     : static_cast<std::uint32_t>(serve::enumerate_cloud_cuts(big).size());
  out.push_back({"cloud.prefix_ms",
                 median_ms([&] { (void)cloud.prefix_feature(in.images[0], cut); },
                           kReps), "ms"});
  std::vector<tensor> features;
  for (std::size_t i = 0; i < cloud_batch; ++i) {
    features.push_back(cloud.prefix_feature(in.images[i], cut));
  }
  std::vector<const tensor*> feature_ptrs;
  for (const tensor& f : features) feature_ptrs.push_back(&f);
  out.push_back({"cloud.suffix_ms",
                 median_ms([&] { (void)cloud.infer_batch_suffix(feature_ptrs, cut); },
                           kReps), "ms"});

  // Wire codec on the workload's frames: appeals_per_batch appeals carrying
  // the raw input, or the feature map at the active cut when splitting.
  const auto per_frame = static_cast<std::size_t>(
      std::max(1.0, std::round(appeals_per_batch)));
  std::vector<tensor> payloads;
  for (std::size_t i = 0; i < per_frame; ++i) {
    payloads.push_back(active_cut > 0 ? cloud.prefix_feature(in.images[i], active_cut)
                                      : in.images[i]);
  }
  std::vector<serve::wire::appeal_view> views(per_frame);
  std::vector<serve::wire::response_record> responses(per_frame);
  for (std::size_t i = 0; i < per_frame; ++i) {
    views[i].id = i;
    views[i].key = i;
    views[i].label = in.labels[i];
    views[i].deadline_ms = kDeadlineMs;
    views[i].model = kModel;
    views[i].input = &in.images[i];
    if (active_cut > 0) {
      views[i].split_cut = active_cut;
      views[i].feature = &payloads[i];
    }
    responses[i].id = i;
    responses[i].prediction = in.labels[i];
  }
  const std::vector<std::uint8_t> appeal_bytes =
      serve::wire::encode_appeal_batch(views);
  const std::vector<std::uint8_t> response_bytes =
      serve::wire::encode_response_batch(responses);
  const auto decode = [](const std::vector<std::uint8_t>& bytes, bool appeals) {
    serve::wire::frame_splitter splitter;
    splitter.feed(bytes.data(), bytes.size());
    const std::optional<serve::wire::frame> f = splitter.next();
    APPEAL_CHECK(f.has_value(), "wire frame did not decode");
    if (appeals) {
      (void)serve::wire::decode_appeal_batch(*f);
    } else {
      (void)serve::wire::decode_response_batch(*f);
    }
  };
  const double encode_ms = median_ms(
      [&] { (void)serve::wire::encode_appeal_batch(views); }, kReps);
  const double decode_ms =
      median_ms([&] { decode(appeal_bytes, true); }, kReps) +
      median_ms([&] { decode(response_bytes, false); }, kReps);
  const auto pf = static_cast<double>(per_frame);
  out.push_back({"wire.encode_us_per_appeal", encode_ms * 1e3 / pf, "us"});
  out.push_back({"wire.decode_us_per_appeal", decode_ms * 1e3 / pf, "us"});
  return out;
}

// --- metrics ----------------------------------------------------------------

void add_percentiles(std::vector<metric>& out, const std::string& prefix,
                     const perfbench::percentiles& p) {
  out.push_back({prefix + ".p50_ms", p.p50, "ms", p.samples});
  out.push_back({prefix + ".p99_ms", p.p99, "ms", p.samples});
}

/// Latency over blocks of one rate: the median of the blocks' p50s and
/// p99s, so a host stall that hits one block moves one of them only.
perfbench::percentiles block_percentiles(const std::vector<phase_record>& blocks) {
  std::vector<perfbench::percentiles> each;
  for (const phase_record& b : blocks) {
    each.push_back(perfbench::phase_percentiles(b.s, perfbench::population::all));
  }
  return perfbench::median_over_blocks(each);
}

/// Latency of one population pooled over all blocks.
perfbench::percentiles pooled_percentiles(const std::vector<phase_record>& blocks,
                                          perfbench::population which) {
  std::vector<const perfbench::phase_samples*> all;
  for (const phase_record& b : blocks) all.push_back(&b.s);
  return perfbench::pooled_percentiles(all, which);
}

/// Mean and p99 of one span stage; cloud-side stages over appealed spans.
void add_stage(std::vector<metric>& out, const std::string& name,
               const std::vector<obs::trace_span>& spans, obs::stage st,
               bool appealed_only) {
  std::vector<double> values;
  double sum = 0.0;
  for (const obs::trace_span& span : spans) {
    if (span.expired || (appealed_only && !span.appealed)) continue;
    values.push_back(span.get(st));
    sum += values.back();
  }
  const std::size_t n = values.size();
  out.push_back({name, n == 0 ? 0.0 : sum / static_cast<double>(n), "ms", n});
  out.push_back({name + ".p99",
                 perfbench::latency_percentiles(std::move(values), 0).p99, "ms", n});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- main -------------------------------------------------------------------

workload_config parse_workload(const util::config& args) {
  workload_config wl;
  wl.name = args.get_string("workload");
  wl.precision = serve::parse_edge_precision(args.get_string("precision"));
  wl.target_sr = args.get_double("target_sr");
  wl.split = serve::parse_split_mode(args.get_string("split"));
  wl.coalesce_ms = args.get_double("coalesce_ms");
  wl.light_rps = args.get_double("light_rps");
  wl.heavy_rps = args.get_double("heavy_rps");
  wl.ladder_rps = parse_list(args.get_string("ladder_rps"));
  wl.p99_limit_ms = args.get_double("p99_limit_ms");
  wl.untrained_edge = args.get_bool_or("untrained_edge", false);
  const double seconds = args.get_double("seconds");
  // The light phase gets the largest share: its appealed requests alone
  // must reach kBlockSamples. The ladder takes what the climb needs.
  const double light_s = seconds * 0.5;
  const double heavy_s = seconds * 0.3;
  // As many alternating light/heavy rounds as keep every block at
  // kBlockSamples requests or more (a p99 with ten samples beyond it).
  wl.rounds = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::min(wl.light_rps * light_s, wl.heavy_rps * heavy_s) /
                               kBlockSamples),
      1, 8);
  wl.light_block_s = light_s / static_cast<double>(wl.rounds);
  wl.heavy_block_s = heavy_s / static_cast<double>(wl.rounds);
  APPEAL_CHECK(wl.light_rps > 0.0 && wl.heavy_rps > wl.light_rps,
               "light and heavy rates must be set, heavy above light");
  return wl;
}

int run(int argc, char** argv) {
  const util::config args = util::config::from_args(argc, argv);
  util::set_log_level(util::log_level::err);
  start_context ctx;
  ctx.wl = parse_workload(args);
  const workload_config& wl = ctx.wl;
  ctx.stub_binary = args.get_string("stub");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool traced = args.get_bool_or("trace", false);
  // setup_s is the median of nine starts; a traced run reports no set-up.
  const std::size_t setups = traced ? 1 : 9;
  const std::string out_path = args.get_string("out");
  const perfbench::model_recipe& recipe = perfbench::default_recipe();
  ctx.paths = perfbench::paths_for(args.get_string("cache"), recipe);
  std::string why;
  APPEAL_CHECK(perfbench::verify_artifacts(ctx.paths, recipe, &why),
               "trained models failed verification: " + why);

  // The run's plan. Every checked block (light and heavy; the traced run
  // replays its light blocks with tracing on) gets its own held-out inputs,
  // so the answers and the appeal share average over as many inputs as
  // requests; the warm-up and the rungs reuse them.
  std::size_t next_input = 1;  // input 0 answers each start's first request
  const auto plan_checked = [&](const char* name, double rate, double block_s,
                                std::uint64_t slot) {
    phase_plan p = plan_phase(name, rate, kWarmS, block_s, seed, slot, next_input);
    next_input += p.sched_ms.size();
    return p;
  };
  std::vector<phase_plan> light_plans;
  std::vector<phase_plan> heavy_plans;
  for (std::size_t r = 0; r < wl.rounds; ++r) {
    light_plans.push_back(plan_checked("light", wl.light_rps, wl.light_block_s, 1 + 2 * r));
    if (!traced) {
      heavy_plans.push_back(plan_checked("heavy", wl.heavy_rps, wl.heavy_block_s, 2 + 2 * r));
    }
  }
  const phase_plan warmup_plan = plan_phase("warmup", wl.light_rps, 0.0, kWarmupS, seed, 0, 1);
  const auto rung_plan = [&](std::size_t rung, double rate) {
    return plan_phase("rung", rate, kWarmS, std::max(kMinRungS, kRungSamples / rate), seed,
                      1000 + rung, 1);
  };
  const perfbench::held_out inputs = perfbench::make_held_out(recipe, seed, next_input);
  ctx.inputs = &inputs;

  // Deployment starts: every start but the last is torn down again.
  std::vector<double> setup_s;
  served_system sys;
  for (std::size_t k = 0; k < setups; ++k) {
    if (sys.server != nullptr) {
      sys.server.reset();
      sys.stub->stop();
    }
    const clock_type::time_point t0 = clock_type::now();
    sys = start_system(ctx, std::to_string(k), /*trace_rate=*/0.0);
    setup_s.push_back(ms_between(t0, clock_type::now()) / 1e3);
  }
  const std::string socket = "stub-" + std::to_string(setups - 1) + ".sock";

  const reference_tables ref = make_reference(ctx, sys.delta);
  // Peak RSS covers serving, not the reference computation above.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  const pid_t stub_pid = sys.stub->pid();
  const perfbench::rung_limits limits{wl.p99_limit_ms, kOkLimit};

  (void)run_phase(*sys.server, inputs, warmup_plan, stub_pid);
  sys.server->at(kModel).reset_stats();
  std::vector<phase_record> light;
  std::vector<phase_record> heavy;  // the traced light blocks in a traced run
  std::vector<metric> metrics;
  perfbench::ladder_result ladder;
  serve::stats_snapshot window;
  std::string trace_path;
  std::size_t redone = 0;

  if (!traced) {
    // Light and heavy blocks alternate, so a stall of the host lands in a
    // few blocks of both rather than in all of one.
    for (std::size_t r = 0; r < wl.rounds; ++r) {
      light.push_back(run_phase(*sys.server, inputs, light_plans[r], stub_pid));
      heavy.push_back(run_phase(*sys.server, inputs, heavy_plans[r], stub_pid));
    }
    // The blocks that saw steal are measured again, worst first, while the
    // budget lasts; a replay replaces its block when it saw less steal.
    double budget_s = std::max(
        kRedoShare * static_cast<double>(wl.rounds) * (wl.light_block_s + wl.heavy_block_s),
        kWarmS + std::max(wl.light_block_s, wl.heavy_block_s));
    std::vector<std::pair<phase_record*, const phase_plan*>> stolen;
    for (std::size_t r = 0; r < wl.rounds; ++r) {
      stolen.emplace_back(&light[r], &light_plans[r]);
      stolen.emplace_back(&heavy[r], &heavy_plans[r]);
    }
    std::sort(stolen.begin(), stolen.end(), [](const auto& a, const auto& b) {
      return a.first->steal_frac > b.first->steal_frac;
    });
    for (const auto& [rec, plan] : stolen) {
      const double cost_s = plan->warm_s + plan->duration_s;
      if (rec->steal_frac <= kMaxSteal) break;
      if (cost_s > budget_s) continue;
      budget_s -= cost_s;
      ++redone;
      phase_record again = run_phase(*sys.server, inputs, *plan, stub_pid);
      if (again.steal_frac < rec->steal_frac) *rec = std::move(again);
    }
    window = sys.server->at(kModel).snapshot();
    // Rung 0 is the heavy rate: its first try is the heavy blocks, its
    // later ones (when those fail) rung-length phases. The climb goes on
    // through the workload's fixed rates.
    std::vector<const perfbench::phase_samples*> heavy_blocks;
    for (const phase_record& b : heavy) heavy_blocks.push_back(&b.s);
    ladder = perfbench::ladder_search(wl.ladder_rps.size() + 1, kRungTries,
                                      [&](std::size_t r, int attempt) {
      if (r == 0 && attempt == 0) return perfbench::judge_blocks(heavy_blocks, limits);
      const double rate = r == 0 ? wl.heavy_rps : wl.ladder_rps[r - 1];
      return perfbench::judge_rung(
          run_phase(*sys.server, inputs, rung_plan(r, rate), stub_pid).s, limits);
    });
    sys.server.reset();
  } else {
    for (const phase_plan& plan : light_plans) {
      light.push_back(run_phase(*sys.server, inputs, plan, stub_pid));
    }
    sys.server.reset();
    // The same light blocks again, the same requests at the same times,
    // with every request sampled into a span.
    sys.server = start_server(ctx, sys.delta, load_calibration(ctx), socket, 1.0);
    (void)run_phase(*sys.server, inputs, warmup_plan, stub_pid);
    serve::deployment& traced_dep = sys.server->at(kModel);
    traced_dep.reset_stats();
    obs::default_collector().clear();
    obs::histogram& batch_hist = obs::default_registry().get_histogram(
        "appeal_batch_size", {}, 0.0, 256.0, 256);
    const obs::histogram::snapshot_data batches_before = batch_hist.snapshot();
    for (phase_plan plan : light_plans) {
      plan.name = "traced";
      heavy.push_back(run_phase(*sys.server, inputs, plan, stub_pid));
    }
    window = traced_dep.snapshot();
    const obs::histogram::snapshot_data batches_after = batch_hist.snapshot();
    const std::vector<obs::trace_span> spans = obs::default_collector().snapshot();
    trace_path = "spans.jsonl";
    std::ofstream(trace_path) << obs::default_collector().render_jsonl();
    sys.server.reset();

    using obs::stage;
    add_stage(metrics, "serve.queue_wait_ms", spans, stage::queue_wait, false);
    add_stage(metrics, "serve.batch_form_ms", spans, stage::batch_form, false);
    add_stage(metrics, "serve.edge_infer_ms", spans, stage::edge_infer, false);
    add_stage(metrics, "serve.decide_ms", spans, stage::decide, false);
    add_stage(metrics, "serve.complete_ms", spans, stage::complete, false);
    add_stage(metrics, "channel.coalesce_ms", spans, stage::appeal_coalesce, true);
    add_stage(metrics, "wire.tx_ms", spans, stage::wire_tx, true);
    add_stage(metrics, "wire.rx_ms", spans, stage::wire_rx, true);
    add_stage(metrics, "stub.queue_ms", spans, stage::cloud_queue, true);
    add_stage(metrics, "stub.score_ms", spans, stage::cloud_score, true);
    const auto batches =
        static_cast<double>(batches_after.total - batches_before.total);
    metrics.push_back({"serve.batch_size_mean",
                       ratio(batches_after.sum - batches_before.sum, batches), "count",
                       static_cast<std::size_t>(batches)});
    metrics.push_back({"serve.threads", static_cast<double>(heavy.front().threads),
                       "count"});
    metrics.push_back({"channel.appeals_per_batch", window.mean_appeals_per_batch,
                       "count", window.appeal_batches});
    metrics.push_back({"channel.split_cut", static_cast<double>(window.split_cut), "id"});
    metrics.push_back({"channel.retry_frac",
                       ratio(static_cast<double>(window.appeal_retries),
                             static_cast<double>(window.appeals_on_wire)), "ratio"});
    metrics.push_back({"channel.fallback_frac",
                       ratio(static_cast<double>(window.link_fallbacks),
                             static_cast<double>(window.appealed)), "ratio"});
    metrics.push_back({"wire.bytes_per_appeal",
                       ratio(static_cast<double>(window.wire_bytes_tx),
                             static_cast<double>(window.appeals_on_wire)), "B"});
    metrics.push_back({"obs.trace_overhead_frac",
                       block_percentiles(heavy).p50 / block_percentiles(light).p50 - 1.0,
                       "ratio"});
  }
  const std::string stub_summary = sys.stub->stop();

  // Answers and costs over the checked blocks: light + heavy, or the
  // untraced + traced light blocks of a traced run.
  std::vector<const phase_record*> checked;
  for (const phase_record& p : light) checked.push_back(&p);
  for (const phase_record& p : heavy) checked.push_back(&p);
  const phase_totals t = totals(checked);
  std::vector<check_result> checks;
  checks.push_back(check_online_offline(checked, inputs, ref, sys.delta));
  std::size_t light_ok = 0;
  std::size_t light_attempted = 0;
  std::vector<double> lateness;
  for (const phase_record* p : checked) {
    if (p->name == "heavy") continue;
    light_attempted += p->s.size();
    for (std::size_t i = 0; i < p->s.size(); ++i) {
      light_ok += p->s.status[i] == perfbench::kOk ? 1 : 0;
      if (p->s.status[i] != perfbench::kUnsent) lateness.push_back(p->s.lateness_ms[i]);
    }
  }
  checks.push_back({"light_rate_all_ok", light_ok == light_attempted,
                    std::to_string(light_ok) + " of " + std::to_string(light_attempted) +
                        " answered OK"});
  const double late = perfbench::latency_percentiles(std::move(lateness), 0).p99;
  checks.push_back({"generator_on_time", late <= kMaxLatenessMs,
                    "light-rate generator lateness p99 " + std::to_string(late) +
                        " ms, limit " + std::to_string(kMaxLatenessMs)});
  const double accuracy = ratio(static_cast<double>(t.correct), static_cast<double>(t.ok));
  checks.push_back({"accuracy_above_trained_floor", accuracy >= kAccuracyFloor,
                    "accuracy " + std::to_string(accuracy) + ", floor " +
                        std::to_string(kAccuracyFloor)});

  // Edge-alone accuracy and useful appeals, from the reference tables.
  std::size_t edge_right = 0;
  std::size_t appeals = 0;
  std::size_t useful = 0;
  for (const phase_record* p : checked) {
    for (std::size_t i = 0; i < p->s.size(); ++i) {
      if (p->s.status[i] != perfbench::kOk) continue;
      const std::size_t k = p->input[i];
      edge_right += ref.little[k] == inputs.labels[k] ? 1 : 0;
      if (ref.appeals[k]) {
        ++appeals;
        useful += ref.little[k] != inputs.labels[k] && ref.big[k] == inputs.labels[k];
      }
    }
  }

  if (!traced) {
    metrics.push_back({"setup_s", perfbench::median(setup_s), "s", setup_s.size()});
    add_percentiles(metrics, "light", block_percentiles(light));
    add_percentiles(metrics, "heavy", block_percentiles(heavy));
    add_percentiles(metrics, "appeal", pooled_percentiles(light, perfbench::population::appealed));
    metrics.push_back({"max_rate_rps", ladder.max_rate(), "1/s", ladder.verdicts.size()});
    metrics.push_back({"accuracy", accuracy, "ratio", t.ok});
    metrics.push_back({"appeal_frac",
                       ratio(static_cast<double>(t.appealed), static_cast<double>(t.ok)),
                       "ratio", t.ok});
    metrics.push_back({"uplink_bytes_per_req",
                       ratio(static_cast<double>(window.wire_bytes_tx),
                             static_cast<double>(window.completed)),
                       "B", window.completed});
    metrics.push_back({"edge_cpu_ms_per_req",
                       perfbench::edge_cpu_ms_per_request(t.process_cpu_ms, t.gen_cpu_ms,
                                                          t.collector_cpu_ms, t.ok),
                       "ms", t.ok});
    metrics.push_back({"cloud_cpu_ms_per_req",
                       ratio(t.stub_cpu_ms, static_cast<double>(t.ok)), "ms", t.ok});
    metrics.push_back({"ok_frac",
                       ratio(static_cast<double>(t.ok), static_cast<double>(t.attempted)),
                       "ratio", t.attempted});
    metrics.push_back({"peak_rss_mb", peak_rss_kib() / 1024.0, "MiB"});
  } else {
    const double scored = static_cast<double>(parse_field(stub_summary, " scored in"));
    const double cloud_batches =
        static_cast<double>(parse_field(stub_summary, " cloud batches"));
    const double received = static_cast<double>(parse_field(stub_summary, " appeals in"));
    metrics.push_back({"stub.scored_frac", ratio(scored, received), "ratio",
                       static_cast<std::size_t>(received)});
    metrics.push_back({"core.edge_accuracy",
                       ratio(static_cast<double>(edge_right), static_cast<double>(t.ok)),
                       "ratio", t.ok});
    metrics.push_back({"core.appeal_useful_frac",
                       ratio(static_cast<double>(useful), static_cast<double>(appeals)),
                       "ratio", appeals});
    const std::vector<metric> timed =
        time_layers(ctx, load_calibration(ctx), std::max(1.0, ratio(scored, cloud_batches)),
                    window.mean_appeals_per_batch, window.split_cut);
    metrics.insert(metrics.end(), timed.begin(), timed.end());
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  APPEAL_CHECK(f != nullptr, "cannot write " + out_path);
  json_writer w(f);
  w.open('{');
  w.key("workload"); w.str(wl.name);
  w.key("seed"); w.integer(static_cast<long long>(seed));
  w.key("traced"); w.boolean(traced);
  w.key("nproc"); w.integer(static_cast<long long>(std::thread::hardware_concurrency()));
  w.key("inputs"); w.integer(static_cast<long long>(inputs.images.size()));
  w.key("delta"); w.num(sys.delta);
  w.key("rounds"); w.integer(static_cast<long long>(wl.rounds));
  w.key("redone_blocks"); w.integer(static_cast<long long>(redone));
  w.key("deadline_ms"); w.num(kDeadlineMs);
  w.key("attempted"); w.integer(static_cast<long long>(t.attempted));
  w.key("answered_ok"); w.integer(static_cast<long long>(t.ok));
  w.key("setup_s"); w.array(setup_s);
  w.key("stub_summary"); w.str(stub_summary);
  w.key("trace_path"); w.str(trace_path);
  w.key("blocks");
  w.open('[');
  for (const std::vector<phase_record>* group : {&light, &heavy}) {
    for (const phase_record& b : *group) {
      const perfbench::percentiles p =
          perfbench::phase_percentiles(b.s, perfbench::population::all);
      w.open('{');
      w.key("name"); w.str(b.name);
      w.key("p50_ms"); w.num(p.p50);
      w.key("p99_ms"); w.num(p.p99);
      w.key("samples"); w.integer(static_cast<long long>(p.samples));
      w.key("steal_frac"); w.num(b.steal_frac);
      w.close('}');
    }
  }
  w.close(']');
  w.key("ladder");
  w.open('[');
  for (const perfbench::rung_verdict& v : ladder.verdicts) {
    w.open('{');
    w.key("rate"); w.num(v.rate);
    w.key("p99_ms"); w.num(v.latency.p99);
    w.key("samples"); w.integer(static_cast<long long>(v.latency.samples));
    w.key("ok_frac"); w.num(v.ok_frac);
    w.key("backlog_mid"); w.integer(static_cast<long long>(v.backlog_mid));
    w.key("backlog_end"); w.integer(static_cast<long long>(v.backlog_end));
    w.key("pass"); w.boolean(v.pass);
    w.close('}');
  }
  w.close(']');
  w.key("checks");
  w.open('[');
  for (const check_result& c : checks) {
    w.open('{');
    w.key("name"); w.str(c.name);
    w.key("pass"); w.boolean(c.pass);
    w.key("detail"); w.str(c.detail);
    w.close('}');
  }
  w.close(']');
  w.key("metrics");
  w.open('[');
  for (const metric& m : metrics) {
    w.open('{');
    w.key("name"); w.str(m.name);
    w.key("value"); w.num(m.value);
    w.key("unit"); w.str(m.unit);
    w.key("samples"); w.integer(static_cast<long long>(m.samples));
    w.close('}');
  }
  w.close(']');
  w.close('}');
  w.raw("\n");
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
