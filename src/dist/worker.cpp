#include "dist/worker.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fcntl.h>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/seed_runner.hpp"
#include "chaos/chaos.hpp"
#include "dist/loop.hpp"
#include "dist/protocol.hpp"
#include "obs/metrics.hpp"

namespace esv::dist {
namespace {

struct WorkerState {
  int fd = -1;
  unsigned id = 0;
  unsigned generation = 0;

  // One mutex serializes every outbound frame: results from the compute
  // threads, heartbeats from the heartbeat thread, the final metrics frame.
  std::mutex send_mutex;
  obs::MetricsRegistry metrics;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::uint64_t> queue;  // assigned seeds not yet picked up
  bool closed = false;              // no more ASSIGNs will arrive
  std::atomic<std::uint64_t> busy{0};
  std::atomic<bool> stop_heartbeat{false};
};

void send_payload(WorkerState& state, const std::string& payload) {
  std::lock_guard<std::mutex> lock(state.send_mutex);
  write_frame(state.fd, payload);
  state.metrics.counter("dist.worker.frames_tx").add();
  state.metrics.counter("dist.worker.bytes_tx")
      .add(payload.size() + kFrameHeaderBytes);
}

/// Test hook: ESV_WORKER_TEST_CRASH_SEED=<seed> makes a generation-0 worker
/// die with SIGKILL the moment it picks up that seed, exactly like a real
/// mid-seed crash. ESV_WORKER_TEST_CRASH_LATCH=<path> arms the hook at most
/// once across the whole campaign (the first worker to reach the seed
/// O_CREAT|O_EXCLs the latch file and dies; everyone after sees the file and
/// runs the seed normally), so crash tests converge no matter which worker
/// the seed lands on first.
void maybe_test_crash(const WorkerState& state, std::uint64_t seed) {
  if (state.generation != 0) return;
  const char* crash_seed = std::getenv("ESV_WORKER_TEST_CRASH_SEED");
  if (crash_seed == nullptr || std::strtoull(crash_seed, nullptr, 10) != seed)
    return;
  if (const char* latch = std::getenv("ESV_WORKER_TEST_CRASH_LATCH")) {
    int fd = ::open(latch, O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) return;  // someone already crashed on this seed
    ::close(fd);
  }
  ::raise(SIGKILL);
}

// ASan maps terabytes of shadow memory, which makes an address-space ceiling
// meaningless; the guard compiles to a no-op there.
#if defined(__SANITIZE_ADDRESS__)
#define ESV_WORKER_NO_AS_CEILING 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ESV_WORKER_NO_AS_CEILING 1
#endif
#endif

/// Per-seed address-space ceiling (--seed-mem-limit). RLIMIT_AS is
/// process-wide, so the ceiling is expressed as *headroom above the worker's
/// baseline* VM size — measured from /proc/self/statm the first time a seed
/// arms the guard — and is held while any compute thread is inside a seed: a
/// refcount sets the soft limit on the first entry and restores the original
/// on the last exit. A seed that outgrows the ceiling gets std::bad_alloc
/// from the verification stack's allocations, which the seed runner
/// classifies as a structured "sut" error capture; the shard itself (and
/// every other seed on it) survives. Best-effort: a failing setrlimit
/// disables the guard rather than the worker.
class SeedMemCeiling {
 public:
  explicit SeedMemCeiling(std::uint64_t limit_mb) : limit_mb_(limit_mb) {}

  void enter() {
#ifndef ESV_WORKER_NO_AS_CEILING
    if (limit_mb_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (++active_ != 1 || broken_) return;
    rlimit current{};
    if (::getrlimit(RLIMIT_AS, &current) != 0) {
      broken_ = true;
      return;
    }
    saved_soft_ = current.rlim_cur;
    rlim_t ceiling = baseline_bytes() + (limit_mb_ << 20);
    if (current.rlim_max != RLIM_INFINITY && ceiling > current.rlim_max) {
      ceiling = current.rlim_max;
    }
    rlimit wanted = current;
    wanted.rlim_cur = ceiling;
    if (::setrlimit(RLIMIT_AS, &wanted) != 0) broken_ = true;
#endif
  }

  void leave() {
#ifndef ESV_WORKER_NO_AS_CEILING
    if (limit_mb_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (--active_ != 0 || broken_) return;
    rlimit current{};
    if (::getrlimit(RLIMIT_AS, &current) == 0) {
      current.rlim_cur = saved_soft_;
      ::setrlimit(RLIMIT_AS, &current);
    }
#endif
  }

 private:
#ifndef ESV_WORKER_NO_AS_CEILING
  rlim_t baseline_bytes() {
    if (baseline_ != 0) return baseline_;
    std::uint64_t pages = 0;
    if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(statm, "%lu", &pages) != 1) pages = 0;
      std::fclose(statm);
    }
    const long page = ::sysconf(_SC_PAGESIZE);
    baseline_ = pages != 0 && page > 0
                    ? static_cast<rlim_t>(pages) * static_cast<rlim_t>(page)
                    : (static_cast<rlim_t>(256) << 20);  // conservative guess
    return baseline_;
  }

  std::mutex mutex_;
  unsigned active_ = 0;
  bool broken_ = false;
  rlim_t saved_soft_ = RLIM_INFINITY;
  rlim_t baseline_ = 0;
#endif
  const std::uint64_t limit_mb_;
};

class SeedMemCeilingScope {
 public:
  explicit SeedMemCeilingScope(SeedMemCeiling& ceiling) : ceiling_(ceiling) {
    ceiling_.enter();
  }
  ~SeedMemCeilingScope() { ceiling_.leave(); }

 private:
  SeedMemCeiling& ceiling_;
};

void compute_loop(WorkerState& state, const campaign::CampaignConfig& config,
                  const campaign::CampaignSetup& setup,
                  SeedMemCeiling& mem_ceiling) {
  campaign::SeedRunner runner(config, setup);
  obs::Counter& seeds_run = state.metrics.counter("dist.worker.seeds_run");
  for (;;) {
    std::uint64_t seed = 0;
    {
      std::unique_lock<std::mutex> lock(state.queue_mutex);
      state.queue_cv.wait(
          lock, [&] { return state.closed || !state.queue.empty(); });
      if (state.queue.empty()) return;
      seed = state.queue.front();
      state.queue.pop_front();
    }
    state.busy.fetch_add(1, std::memory_order_relaxed);
    maybe_test_crash(state, seed);
    // Self-chaos worker.seed point (docs/RESILIENCE.md): crash reproduces a
    // real mid-seed death (the broker re-dispatches under --seed-retries);
    // stall exercises the heartbeat-keeps-us-alive / progress-watchdog
    // boundary without killing anything.
    if (const chaos::Injection injection =
            chaos::at(chaos::Point::kWorkerSeed)) {
      if (injection.action == chaos::Action::kCrash) ::raise(SIGKILL);
      if (injection.action == chaos::Action::kStall) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(injection.arg));
      }
    }
    campaign::SeedResult result;
    {
      SeedMemCeilingScope ceiling(mem_ceiling);
      result = runner.run_seed(seed);
    }
    seeds_run.add();
    try {
      send_payload(state, make_result(result));
    } catch (const WireError&) {
      std::_Exit(0);  // broker is gone; nothing left to report to
    }
    state.busy.fetch_sub(1, std::memory_order_relaxed);
  }
}

void heartbeat_loop(WorkerState& state) {
  while (!state.stop_heartbeat.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::uint64_t queued = 0;
    {
      std::lock_guard<std::mutex> lock(state.queue_mutex);
      queued = state.queue.size();
    }
    // Self-chaos worker.heartbeat point: a late beat must at worst look like
    // a silent worker to the broker (heartbeat timeout -> kill -> respawn),
    // never corrupt anything.
    if (const chaos::Injection injection =
            chaos::at(chaos::Point::kWorkerHeartbeat)) {
      if (injection.action == chaos::Action::kDelay) {
        std::this_thread::sleep_for(std::chrono::milliseconds(injection.arg));
      }
    }
    try {
      send_payload(state, make_heartbeat(
                              queued, state.busy.load(std::memory_order_relaxed)));
      state.metrics.counter("dist.worker.heartbeats_tx").add();
    } catch (const WireError&) {
      std::_Exit(0);
    }
  }
}

int fail_usage(const char* message) {
  std::fprintf(stderr, "esv-worker: %s\n", message);
  std::fprintf(stderr,
               "usage: esv-worker --connect=SOCKET --id=N --generation=G\n");
  return 2;
}

}  // namespace

int worker_main(int argc, char** argv) {
  std::string socket_path;
  unsigned id = 0;
  unsigned generation = 0;
  bool have_id = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      socket_path = arg.substr(10);
    } else if (arg.rfind("--id=", 0) == 0) {
      id = static_cast<unsigned>(
          std::strtoul(std::string(arg.substr(5)).c_str(), nullptr, 10));
      have_id = true;
    } else if (arg.rfind("--generation=", 0) == 0) {
      generation = static_cast<unsigned>(
          std::strtoul(std::string(arg.substr(13)).c_str(), nullptr, 10));
    } else {
      return fail_usage("unknown argument");
    }
  }
  if (socket_path.empty() || !have_id) {
    return fail_usage("--connect and --id are required");
  }

  // A broker that dies mid-read turns our next send into SIGPIPE; ignoring
  // it here (not just in the esv-worker shim) means every embedding of
  // worker_main converts a dead peer into a WireError and a structured exit
  // instead of a signal death the broker would misread as a worker crash.
  std::signal(SIGPIPE, SIG_IGN);

  // Self-chaos (docs/RESILIENCE.md): the broker forwards --chaos through the
  // environment; injections here are salted by worker id and generation.
  chaos::ChaosEngine* chaos_engine = chaos::install_from_env(id, generation);

  const int fd = connect_unix(socket_path);
  if (fd < 0) return fail_usage("cannot connect to broker socket");

  WorkerState state;
  state.fd = fd;
  state.id = id;
  state.generation = generation;
  // Worker-side chaos counters ride home in the final METRICS frame and
  // surface under the report's operational "dist" block.
  if (chaos_engine != nullptr) chaos_engine->set_metrics(&state.metrics);

  campaign::CampaignConfig config;
  try {
    write_frame(fd, make_worker_hello(id, generation, ::getpid()));
    std::optional<std::string> reply = read_frame(fd);
    if (!reply) return 1;  // broker vanished before configuring us
    Frame frame = parse_frame(*reply);
    if (frame.kind != FrameKind::kHello ||
        frame.body.at("protocol").as_u64() != kProtocolVersion) {
      return fail_usage("protocol mismatch in broker hello");
    }
    config = campaign::config_from_json(frame.body.at("config"));
  } catch (const WireError& error) {
    std::fprintf(stderr, "esv-worker: handshake failed: %s\n", error.what());
    return 1;
  }

  // The broker validated this exact config before spawning us, so a setup
  // failure here means broker/worker version skew — die loudly and let the
  // broker's crash path classify the assigned seeds.
  campaign::CampaignSetup setup;
  try {
    setup = campaign::prepare_campaign(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "esv-worker: campaign setup failed: %s\n",
                 error.what());
    return 1;
  }

  unsigned jobs = config.jobs < 1 ? 1 : config.jobs;
  SeedMemCeiling mem_ceiling(config.seed_mem_limit_mb);
  std::vector<std::thread> compute;
  compute.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) {
    compute.emplace_back([&state, &config, &setup, &mem_ceiling] {
      compute_loop(state, config, setup, mem_ceiling);
    });
  }
  std::thread heartbeat([&state] { heartbeat_loop(state); });

  // Main thread: the inbound frame loop. ASSIGN feeds the queue; SHUTDOWN
  // triggers the final METRICS frame and a direct exit (compute threads are
  // either idle or working on seeds the broker has already written off).
  for (;;) {
    std::optional<std::string> payload;
    try {
      payload = read_frame(fd);
    } catch (const WireError&) {
      std::_Exit(0);
    }
    if (!payload) std::_Exit(0);  // broker closed the stream
    state.metrics.counter("dist.worker.frames_rx").add();
    state.metrics.counter("dist.worker.bytes_rx")
        .add(payload->size() + kFrameHeaderBytes);
    Frame frame;
    try {
      frame = parse_frame(*payload);
    } catch (const WireError& error) {
      std::fprintf(stderr, "esv-worker: bad frame: %s\n", error.what());
      std::_Exit(1);
    }
    switch (frame.kind) {
      case FrameKind::kAssign: {
        state.metrics.counter("dist.worker.assigns_rx").add();
        std::lock_guard<std::mutex> lock(state.queue_mutex);
        for (const Json& seed : frame.body.at("seeds").items()) {
          state.queue.push_back(seed.as_u64());
        }
        state.queue_cv.notify_all();
        break;
      }
      case FrameKind::kShutdown: {
        // Drain in-flight sends, then report metrics and exit. Seeds still
        // queued or running are intentionally dropped: the broker only sends
        // SHUTDOWN once every seed slot is filled.
        state.stop_heartbeat.store(true, std::memory_order_relaxed);
        try {
          send_payload(state, make_metrics(state.metrics.snapshot()));
        } catch (const WireError&) {
        }
        std::_Exit(0);
      }
      default:
        break;  // HELLO/RESULT/METRICS/HEARTBEAT are not broker->worker
    }
  }
}

}  // namespace esv::dist
