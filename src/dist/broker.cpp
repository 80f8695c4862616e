#include "dist/broker.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/seed_runner.hpp"
#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "dist/loop.hpp"
#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esv::dist {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point then) {
  return std::chrono::duration<double>(Clock::now() - then).count();
}

struct WorkerSlot {
  unsigned id = 0;
  unsigned generation = 0;
  pid_t pid = -1;
  bool alive = false;      // process running (not yet reaped)
  bool kill_sent = false;  // SIGKILL already delivered this incarnation
  bool retired = false;    // respawn budget exhausted; stays down
  unsigned respawns = 0;
  bool spawn_pending = false;  // respawn scheduled, waiting out the backoff
  Clock::time_point spawn_at{};

  /// Connection of this incarnation once its HELLO arrived.
  ConnId conn = kNoConn;
  /// Seed *indices* dispatched to this incarnation and not yet resulted.
  std::deque<std::uint64_t> assigned;
  Clock::time_point last_seen{};
  Clock::time_point last_assign{};  // rate-limits lost-ASSIGN re-sends

  bool connected() const { return conn != kNoConn; }
};

class Broker {
 public:
  Broker(const campaign::CampaignConfig& config, const BrokerOptions& options)
      : config_(config),
        options_(options),
        setup_(campaign::prepare_campaign(config)),
        loop_({/*on_accept=*/nullptr, /*on_header=*/nullptr,
               [this](ConnId conn, const std::string& payload) {
                 on_frame(conn, payload);
               },
               [this](ConnId conn, CloseReason reason) {
                 on_close(conn, reason);
               }}),
        backoff_(options.backoff_base_seconds, options.backoff_cap_seconds,
                 options.backoff_seed),
        chaos_seed_text_(std::to_string(options.chaos_seed)) {
    // MSG_NOSIGNAL only covers send(); a worker vanishing between poll() and
    // any other write path would still raise SIGPIPE and kill the broker.
    // Ignoring it process-wide turns every such race into a clean WireError.
    std::signal(SIGPIPE, SIG_IGN);
    count_ = config.seed_hi - config.seed_lo + 1;
    jobs_ = config.jobs < 1 ? 1 : config.jobs;
    std::uint64_t workers = config.workers < 1 ? 1 : config.workers;
    workers_ = static_cast<unsigned>(std::min<std::uint64_t>(workers, count_));
    shard_ = options.shard_size != 0
                 ? options.shard_size
                 : std::clamp<std::uint64_t>(count_ / (workers_ * 4), 1, 64);

    binary_ = config.worker_binary.empty() ? default_worker_binary()
                                           : config.worker_binary;
    if (binary_.empty() || ::access(binary_.c_str(), X_OK) != 0) {
      throw std::invalid_argument(
          "dist: cannot resolve an executable esv-worker binary (set "
          "ESV_WORKER_BIN or install esv-worker next to the running "
          "executable)" +
          (binary_.empty() ? std::string()
                           : "; tried '" + binary_ + "'"));
    }

    // What crosses the wire: trace_dir stays broker-side (files are written
    // by finalize_report after the merge), so workers just capture traces.
    // Checkpointing stays broker-side too — workers always compute fresh.
    wire_config_ = config;
    wire_config_.capture_traces =
        config.capture_traces || !config.trace_dir.empty();
    wire_config_.on_result = nullptr;
    wire_config_.resume_results.clear();

    report_ = campaign::make_report_skeleton(config, setup_);
    report_.jobs = jobs_;
    filled_.assign(count_, 0);
    crash_count_.assign(count_, 0);
    // Seeds recovered from a checkpoint journal fill their slots up front;
    // they are never dispatched and never re-journaled.
    for (const campaign::SeedResult& recovered : config.resume_results) {
      if (recovered.seed < config.seed_lo || recovered.seed > config.seed_hi) {
        continue;
      }
      const std::uint64_t index = recovered.seed - config.seed_lo;
      if (!filled_[index]) fill(index, recovered);
    }
    for (std::uint64_t i = 0; i < count_; ++i) {
      if (!filled_[i]) pending_.push_back(i);
    }

    open_socket();
    slots_.resize(workers_);
    for (unsigned i = 0; i < workers_; ++i) slots_[i].id = i;
  }

  ~Broker() { cleanup(); }

  campaign::CampaignReport run() {
    Clock::time_point start = Clock::now();
    last_progress_ = start;
    if (config_.campaign_timeout_seconds > 0.0) {
      deadline_active_ = true;
      deadline_tp_ = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     config_.campaign_timeout_seconds));
    }
    // A fully resumed campaign has nothing left to dispatch: don't spawn.
    if (filled_count_ < count_) {
      for (WorkerSlot& slot : slots_) spawn(slot);
      event_loop();
    }
    shutdown_workers();
    // Only a deadline or cancellation abort leaves slots unfilled past the
    // event loop (abandonment and degradation both fill every slot).
    if (filled_count_ < count_) fill_deadline_errors();

    report_.distributed = true;
    report_.workers = workers_;
    obs::MetricsSnapshot dist = metrics_.snapshot();
    dist.merge(worker_metrics_);
    report_.dist_metrics = std::move(dist);
    report_.dist_events_jsonl = events_.text();
    campaign::finalize_report(config_, setup_, report_);
    report_.wall_seconds = seconds_since(start);
    return std::move(report_);
  }

 private:
  // --- socket plumbing ---------------------------------------------------

  void open_socket() {
    std::string base = "/tmp";
    if (const char* tmpdir = std::getenv("TMPDIR")) {
      // sun_path is ~108 bytes; fall back to /tmp when TMPDIR is too deep.
      if (std::strlen(tmpdir) > 0 && std::strlen(tmpdir) < 60) base = tmpdir;
    }
    std::string tmpl = base + "/esv-dist.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("dist: mkdtemp failed for broker socket dir");
    }
    sock_dir_ = buf.data();
    sock_path_ = sock_dir_ + "/broker.sock";
    loop_.listen(listen_unix(sock_path_, static_cast<int>(workers_) + 4));
  }

  /// Kills and reaps live workers and removes the socket; the loop closes
  /// the connections.
  void cleanup() {
    for (WorkerSlot& slot : slots_) {
      if (slot.alive && slot.pid > 0) {
        ::kill(slot.pid, SIGKILL);
        int status = 0;
        while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
        }
        slot.alive = false;
      }
    }
    if (!sock_path_.empty()) ::unlink(sock_path_.c_str());
    if (!sock_dir_.empty()) ::rmdir(sock_dir_.c_str());
    sock_path_.clear();
    sock_dir_.clear();
  }

  // --- worker lifecycle --------------------------------------------------

  void spawn(WorkerSlot& slot) {
    pid_t pid = ::fork();
    if (pid < 0) {
      slot.retired = true;
      events_.worker_event("spawn_failed", slot.id, slot.generation,
                           "fork failed");
      return;
    }
    if (pid == 0) {
      // Self-chaos propagation: the plan rides the environment, salted on
      // the worker side by id and generation. A chaos-free campaign scrubs
      // the variables so nothing leaks in from the test environment.
      if (!options_.chaos_plan_text.empty()) {
        ::setenv(chaos::kPlanEnv, options_.chaos_plan_text.c_str(), 1);
        ::setenv(chaos::kSeedEnv, chaos_seed_text_.c_str(), 1);
      } else {
        ::unsetenv(chaos::kPlanEnv);
        ::unsetenv(chaos::kSeedEnv);
      }
      std::string connect_arg = "--connect=" + sock_path_;
      std::string id_arg = "--id=" + std::to_string(slot.id);
      std::string gen_arg = "--generation=" + std::to_string(slot.generation);
      ::execl(binary_.c_str(), "esv-worker", connect_arg.c_str(),
              id_arg.c_str(), gen_arg.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed; the parent reaps this as a crash
    }
    slot.pid = pid;
    slot.alive = true;
    slot.kill_sent = false;
    slot.spawn_pending = false;
    slot.conn = kNoConn;
    slot.last_seen = Clock::now();
    metrics_.counter("dist.spawns").add();
    events_.worker_event(slot.generation == 0 ? "spawn" : "respawn", slot.id,
                         slot.generation);
    if (slot.generation != 0) metrics_.counter("dist.respawns").add();
  }

  void kill_slot(WorkerSlot& slot) {
    if (slot.alive && slot.pid > 0 && !slot.kill_sent) {
      ::kill(slot.pid, SIGKILL);
      slot.kill_sent = true;
    }
  }

  /// Reaps exited workers; `block` waits for every live one (after the
  /// shutdown kill).
  void reap_workers(bool block = false) {
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive || slot.pid <= 0) continue;
      int status = 0;
      pid_t reaped;
      do {
        reaped = ::waitpid(slot.pid, &status, block ? 0 : WNOHANG);
      } while (reaped < 0 && errno == EINTR);
      if (reaped != slot.pid) continue;
      slot.alive = false;
      std::string reason;
      if (block) {
        reason = "killed at shutdown";
      } else if (WIFEXITED(status)) {
        reason = "exited with status " + std::to_string(WEXITSTATUS(status));
      } else if (WIFSIGNALED(status)) {
        reason = "killed by signal " + std::to_string(WTERMSIG(status));
      } else {
        reason = "stopped";
      }
      on_worker_down(slot, reason);
    }
  }

  void check_timeouts() {
    if (options_.heartbeat_timeout_seconds <= 0.0) return;
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive || slot.kill_sent) continue;
      if (seconds_since(slot.last_seen) < options_.heartbeat_timeout_seconds)
        continue;
      metrics_.counter("dist.timeouts").add();
      events_.worker_event("timeout", slot.id, slot.generation,
                           "no frame within heartbeat timeout");
      kill_slot(slot);  // the reap path classifies it as a crash
    }
  }

  /// The single exit point for a dead incarnation: salvage buffered frames,
  /// re-dispatch or abandon its seeds, and respawn the slot if the budget
  /// allows. Called exactly once per incarnation (from reap_workers).
  void on_worker_down(WorkerSlot& slot, const std::string& reason) {
    // The process is dead, so EOF is guaranteed: drain whatever RESULT /
    // METRICS frames it managed to send before dying.
    loop_.drain(slot.conn);
    metrics_.counter("dist.worker_exits").add();
    events_.worker_event("exit", slot.id, slot.generation, reason);
    if (draining_) {
      slot.assigned.clear();
      return;
    }
    for (std::uint64_t index : slot.assigned) {
      if (filled_[index]) continue;
      ++crash_count_[index];
      if (crash_count_[index] <= config_.seed_retries) {
        // Backed-off re-dispatch: a seed that just took a worker down waits
        // out an exponential delay before landing on the next one, so a
        // poison seed cannot saw through the whole fleet in one poll cycle.
        deferred_.push_back(
            {Clock::now() + backoff_delay(crash_count_[index] - 1), index});
        metrics_.counter("dist.redispatched_seeds").add();
      } else {
        abandon(index,
                "worker crashed while running this seed (" + reason +
                    ") and the --seed-retries re-dispatch budget is spent");
      }
    }
    slot.assigned.clear();
    if (filled_count_ >= count_ && deferred_.empty()) return;
    if (slot.respawns >= options_.max_respawns) {
      slot.retired = true;
      return;
    }
    ++slot.respawns;
    ++slot.generation;
    slot.spawn_pending = true;
    slot.spawn_at = Clock::now() + backoff_delay(slot.respawns - 1);
  }

  /// One draw from the shared BackoffSchedule (broker.hpp), recorded in the
  /// dist.backoff_ms histogram.
  Clock::duration backoff_delay(unsigned attempt) {
    const double delay = backoff_.delay_seconds(attempt);
    metrics_.duration_histogram("dist.backoff_ms")
        .record(static_cast<std::uint64_t>(delay * 1000.0));
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(delay));
  }

  /// Moves due re-dispatches from the backoff bench to the pending queue.
  void promote_deferred() {
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < deferred_.size();) {
      if (deferred_[i].first <= now) {
        pending_.push_front(deferred_[i].second);
        deferred_[i] = deferred_.back();
        deferred_.pop_back();
      } else {
        ++i;
      }
    }
  }

  /// Spawns slots whose respawn backoff has elapsed.
  void maybe_respawn() {
    if (draining_) return;
    const Clock::time_point now = Clock::now();
    for (WorkerSlot& slot : slots_) {
      if (slot.spawn_pending && now >= slot.spawn_at) spawn(slot);
    }
  }

  /// Progress watchdog (BrokerOptions::progress_timeout_seconds): seeds are
  /// booked but no RESULT has landed anywhere for a full window — kill every
  /// worker holding seeds and let the crash path recover the work. This is
  /// the backstop for losses heartbeats cannot see.
  void check_progress() {
    if (options_.progress_timeout_seconds <= 0.0) return;
    bool outstanding = false;
    for (const WorkerSlot& slot : slots_) {
      outstanding |= !slot.assigned.empty();
    }
    if (!outstanding) {
      last_progress_ = Clock::now();
      return;
    }
    if (seconds_since(last_progress_) < options_.progress_timeout_seconds) {
      return;
    }
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive || slot.kill_sent || slot.assigned.empty()) continue;
      metrics_.counter("dist.progress_timeouts").add();
      events_.worker_event("progress_timeout", slot.id, slot.generation,
                           std::to_string(slot.assigned.size()) +
                               " seeds outstanding with no campaign progress");
      kill_slot(slot);
    }
    last_progress_ = Clock::now();
  }

  // --- scheduling --------------------------------------------------------

  bool send_to(WorkerSlot& slot, const std::string& payload) {
    try {
      write_frame(loop_.fd(slot.conn), payload);
    } catch (const WireError&) {
      loop_.close(slot.conn);
      kill_slot(slot);  // reap re-dispatches everything it held
      return false;
    }
    metrics_.counter("dist.frames_tx").add();
    metrics_.counter("dist.bytes_tx").add(payload.size() + kFrameHeaderBytes);
    return true;
  }

  /// Keeps a connected worker fed: tops its outstanding set up to a shard
  /// from the pending queue, and when the queue is dry and the worker is
  /// idle, steals the tail of the busiest worker's outstanding seeds. Stolen
  /// seeds stay queued on the victim too (there is no CANCEL frame); the
  /// broker keeps the first RESULT per seed, which is safe because results
  /// are deterministic.
  void top_up(WorkerSlot& slot) {
    if (!slot.connected()) return;
    const std::size_t low_water = std::max<std::size_t>(2 * jobs_, 2);
    if (slot.assigned.size() >= low_water) return;

    std::vector<std::uint64_t> seeds;
    while (!pending_.empty() && seeds.size() < shard_) {
      std::uint64_t index = pending_.front();
      pending_.pop_front();
      if (filled_[index]) continue;
      slot.assigned.push_back(index);
      seeds.push_back(config_.seed_lo + index);
    }

    if (seeds.empty() && slot.assigned.empty()) {
      WorkerSlot* victim = nullptr;
      for (WorkerSlot& other : slots_) {
        if (other.id == slot.id || !other.connected()) continue;
        if (victim == nullptr ||
            other.assigned.size() > victim->assigned.size()) {
          victim = &other;
        }
      }
      if (victim != nullptr && victim->assigned.size() >= 2) {
        std::size_t take = victim->assigned.size() / 2;
        while (take-- > 0) {
          std::uint64_t index = victim->assigned.back();
          victim->assigned.pop_back();
          slot.assigned.push_back(index);
          seeds.push_back(config_.seed_lo + index);
        }
        metrics_.counter("dist.steals").add();
        metrics_.counter("dist.stolen_seeds").add(seeds.size());
        events_.worker_event("steal", slot.id, slot.generation,
                             std::to_string(seeds.size()) +
                                 " seeds from worker " +
                                 std::to_string(victim->id));
      }
    }

    if (!seeds.empty()) {
      metrics_.counter("dist.assign_frames").add();
      slot.last_assign = Clock::now();
      send_to(slot, make_assign(seeds));
    }
  }

  void fill(std::uint64_t index, campaign::SeedResult result) {
    report_.seeds[index] = std::move(result);
    filled_[index] = 1;
    ++filled_count_;
  }

  /// Fills a seed the broker could not run with a deterministic
  /// "infrastructure"-kind capture, counted in `counter`.
  void fill_error(std::uint64_t index, std::string error,
                  const char* counter) {
    campaign::SeedResult result;
    result.seed = config_.seed_lo + index;
    result.error = std::move(error);
    result.error_kind = "infrastructure";
    result.attempts = std::max(1u, crash_count_[index]);
    result.fault_plan_digest = setup_.plan_digest;
    fill(index, std::move(result));
    metrics_.counter(counter).add();
  }

  void abandon(std::uint64_t index, const std::string& reason) {
    fill_error(index, "distributed: " + reason, "dist.abandoned_seeds");
  }

  void abandon_remaining(const std::string& reason) {
    for (std::uint64_t index = 0; index < count_; ++index) {
      if (!filled_[index]) abandon(index, reason);
    }
  }

  // --- frame handling ----------------------------------------------------

  void handle_result(const Json& body) {
    campaign::SeedResult result =
        campaign::seed_result_from_json(body.at("result"));
    if (result.seed < config_.seed_lo || result.seed > config_.seed_hi) return;
    std::uint64_t index = result.seed - config_.seed_lo;
    for (WorkerSlot& slot : slots_) {
      auto it = std::find(slot.assigned.begin(), slot.assigned.end(), index);
      if (it != slot.assigned.end()) slot.assigned.erase(it);
    }
    if (filled_[index]) {
      metrics_.counter("dist.duplicate_results").add();
      return;
    }
    // Write-ahead ordering: the journal record hits the log before the seed
    // is acknowledged as filled, so a broker killed between the two re-runs
    // the seed instead of losing it. Broker-synthesized abandonment results
    // are deliberately NOT journaled — they record a transient infrastructure
    // failure, and a resumed run should retry those seeds, not replay them.
    if (config_.on_result) config_.on_result(result);
    fill(index, std::move(result));
    last_progress_ = Clock::now();
    metrics_.counter("dist.results_rx").add();
  }

  void handle_frame(WorkerSlot& slot, const std::string& payload) {
    slot.last_seen = Clock::now();
    metrics_.counter("dist.frames_rx").add();
    metrics_.counter("dist.bytes_rx").add(payload.size() + kFrameHeaderBytes);
    Frame frame;
    try {
      frame = parse_frame(payload);
    } catch (const WireError&) {
      kill_slot(slot);  // stream corruption: treat the incarnation as dead
      return;
    }
    switch (frame.kind) {
      case FrameKind::kResult:
        handle_result(frame.body);
        break;
      case FrameKind::kMetrics:
        try {
          worker_metrics_.merge(
              campaign::metrics_from_json(frame.body.at("metrics")));
        } catch (const WireError&) {
        }
        break;
      case FrameKind::kHeartbeat: {
        metrics_.counter("dist.heartbeats_rx").add();
        const std::uint64_t queued = frame.body.u64_or("queued", 0);
        metrics_.duration_histogram("dist.worker_queue_depth").record(queued);
        // Lost-ASSIGN recovery: the worker says it is completely idle, yet
        // seeds are booked to this incarnation — an ASSIGN never arrived.
        // Re-send the booking (rate limited); duplicate RESULTs are deduped,
        // so a merely-slow worker costs a redundant computation, never a
        // wrong report.
        if (!draining_ && queued == 0 && frame.body.u64_or("busy", 0) == 0 &&
            !slot.assigned.empty() && options_.reassign_after_seconds > 0.0 &&
            seconds_since(slot.last_assign) >=
                options_.reassign_after_seconds) {
          std::vector<std::uint64_t> seeds;
          for (std::uint64_t index : slot.assigned) {
            seeds.push_back(config_.seed_lo + index);
          }
          metrics_.counter("dist.reassigns").add();
          events_.worker_event("reassign", slot.id, slot.generation,
                               std::to_string(seeds.size()) +
                                   " booked seeds re-sent to an idle worker");
          slot.last_assign = Clock::now();
          send_to(slot, make_assign(seeds));
        }
        break;
      }
      default:
        break;  // late HELLO / broker-bound kinds: nothing to do
    }
  }

  WorkerSlot* slot_of(ConnId conn) {
    if (conn == kNoConn) return nullptr;
    for (WorkerSlot& slot : slots_) {
      if (slot.conn == conn) return &slot;
    }
    return nullptr;
  }

  /// Loop callback for every decoded frame. A connection with no slot yet
  /// is pre-HELLO: its first frame must be a HELLO that attaches it.
  void on_frame(ConnId conn, const std::string& payload) {
    if (WorkerSlot* slot = slot_of(conn)) {
      handle_frame(*slot, payload);
      return;
    }
    try {
      Frame frame = parse_frame(payload);
      if (frame.kind == FrameKind::kHello) {
        attach_worker(conn, frame.body);
        return;
      }
    } catch (const WireError&) {
    }
    loop_.close(conn);  // first frame was not a well-formed HELLO
  }

  /// Loop callback for every closed connection. EOF only detaches the
  /// slot; seed accounting waits for the authoritative reap.
  void on_close(ConnId conn, CloseReason reason) {
    WorkerSlot* slot = slot_of(conn);
    if (slot == nullptr) return;
    slot->conn = kNoConn;
    // Framing-level corruption (oversized length or a CRC mismatch): the
    // stream cannot be resynchronized, so the incarnation is killed and its
    // seeds recovered whole through the crash path.
    if (reason == CloseReason::kCorrupt) kill_slot(*slot);
  }

  void attach_worker(ConnId conn, const Json& hello) {
    unsigned id = static_cast<unsigned>(hello.u64_or("worker", ~0u));
    unsigned generation =
        static_cast<unsigned>(hello.u64_or("generation", ~0u));
    bool version_ok = hello.u64_or("protocol", 0) == kProtocolVersion;
    WorkerSlot* slot =
        id < slots_.size() && version_ok ? &slots_[id] : nullptr;
    if (slot == nullptr || slot->generation != generation || !slot->alive ||
        slot->connected()) {
      loop_.close(conn);  // stale incarnation or protocol skew
      return;
    }
    slot->conn = conn;
    slot->last_seen = Clock::now();
    events_.worker_event("connect", slot->id, slot->generation);
    if (send_to(*slot, make_broker_hello(wire_config_))) {
      // A worker that finishes its handshake while the broker is already
      // draining (it was respawned just before the last seed landed) gets an
      // immediate SHUTDOWN, so the drain never waits out the grace period.
      if (draining_) {
        send_to(*slot, make_shutdown());
      } else {
        top_up(*slot);
      }
    }
  }

  // --- event loop --------------------------------------------------------

  void event_loop() {
    while (filled_count_ < count_) {
      reap_workers();
      check_timeouts();
      check_progress();
      promote_deferred();
      maybe_respawn();
      if (filled_count_ >= count_) break;
      if (cancel_requested()) {
        // Structured cancellation abort: identical shape to the deadline —
        // stop dispatching, shut the fleet down, capture the rest.
        metrics_.counter("dist.cancel_aborts").add();
        events_.campaign_event(
            "cancelled", std::to_string(count_ - filled_count_) +
                             " seeds unfinished at cancellation");
        report_.cancelled = true;
        break;
      }
      if (deadline_active_ && Clock::now() >= deadline_tp_) {
        // Structured deadline abort: stop dispatching, shut the fleet down,
        // and let run() capture the unfinished seeds deterministically.
        metrics_.counter("dist.deadline_aborts").add();
        events_.campaign_event(
            "deadline", std::to_string(count_ - filled_count_) +
                            " seeds unfinished at --campaign-timeout");
        report_.deadline_exceeded = true;
        break;
      }
      bool any_alive = false;
      bool any_scheduled = false;
      for (const WorkerSlot& slot : slots_) {
        any_alive |= slot.alive;
        any_scheduled |= slot.spawn_pending;
      }
      if (!any_alive && !any_scheduled) {
        if (options_.degrade_in_process) {
          degrade_in_process();
        } else {
          abandon_remaining(
              "no live workers remain (respawn budget exhausted)");
        }
        break;
      }
      for (WorkerSlot& slot : slots_) top_up(slot);
      // Tighten the poll when a backoff timer (re-dispatch or respawn) is
      // pending so due timers fire promptly.
      loop_.turn(!deferred_.empty() || any_scheduled ? 10 : 100);
    }
  }

  /// Graceful degradation (docs/RESILIENCE.md): every worker slot is dead
  /// with no respawn budget left, so the remaining seeds finish in-process
  /// on jobs_ threads through the same SeedRunner path the workers use. The
  /// per-seed results are identical by construction; only the operational
  /// `degraded` flag and the timing section differ from a healthy run.
  void degrade_in_process() {
    report_.degraded = true;
    metrics_.counter("dist.degradations").add();
    std::vector<std::uint64_t> remaining;
    for (std::uint64_t index = 0; index < count_; ++index) {
      if (!filled_[index]) remaining.push_back(index);
    }
    events_.campaign_event(
        "degraded", std::to_string(remaining.size()) +
                        " seeds moved in-process (no live workers remain "
                        "and the respawn budget is spent)");
    pending_.clear();
    deferred_.clear();
    if (remaining.empty()) return;
    std::atomic<std::size_t> cursor{0};
    std::mutex mutex;
    const unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, remaining.size()));
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        campaign::SeedRunner runner(wire_config_, setup_);
        for (;;) {
          const std::size_t at = cursor.fetch_add(1);
          if (at >= remaining.size()) return;
          if (cancel_requested()) return;
          if (deadline_active_ && Clock::now() >= deadline_tp_) return;
          const std::uint64_t index = remaining[at];
          campaign::SeedResult result =
              runner.run_seed(config_.seed_lo + index);
          std::lock_guard<std::mutex> lock(mutex);
          if (filled_[index]) continue;
          if (config_.on_result) config_.on_result(result);
          fill(index, std::move(result));
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  }

  bool cancel_requested() const {
    return config_.cancel != nullptr &&
           config_.cancel->load(std::memory_order_relaxed);
  }

  /// Deterministic captures for seeds a deadline or cancellation abort left
  /// unfinished. These are never journaled (the resume path should recompute
  /// them) and carry error_kind "infrastructure" like abandonment. An
  /// explicit cancel wins the attribution when both apply.
  void fill_deadline_errors() {
    // Keep the event loop's attribution if it already chose one (a cancel
    // arriving after a deadline break must not relabel the abort).
    const bool was_cancelled =
        report_.cancelled ||
        (!report_.deadline_exceeded && cancel_requested());
    if (was_cancelled) {
      report_.cancelled = true;
    } else {
      report_.deadline_exceeded = true;
    }
    for (std::uint64_t index = 0; index < count_; ++index) {
      if (filled_[index]) continue;
      fill_error(index,
                 was_cancelled ? "campaign: cancelled"
                               : "campaign: wall-clock deadline exceeded "
                                 "(--campaign-timeout)",
                 "dist.deadline_seeds");
    }
  }

  void shutdown_workers() {
    draining_ = true;
    for (WorkerSlot& slot : slots_) {
      if (slot.connected()) send_to(slot, make_shutdown());
    }
    Clock::time_point deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(options_.shutdown_grace_seconds));
    for (;;) {
      reap_workers();  // drains each exiting worker's final METRICS frame
      bool any_alive = false;
      for (const WorkerSlot& slot : slots_) any_alive |= slot.alive;
      if (!any_alive) break;
      if (Clock::now() >= deadline) {
        for (WorkerSlot& slot : slots_) {
          if (!slot.alive) continue;
          events_.worker_event("killed_at_shutdown", slot.id, slot.generation);
          kill_slot(slot);
        }
        reap_workers(/*block=*/true);
        break;
      }
      loop_.turn(50);
    }
  }

  const campaign::CampaignConfig& config_;
  BrokerOptions options_;
  campaign::CampaignSetup setup_;
  Loop loop_;
  campaign::CampaignConfig wire_config_;
  campaign::CampaignReport report_;

  std::uint64_t count_ = 0;
  unsigned jobs_ = 1;
  unsigned workers_ = 1;
  std::uint64_t shard_ = 1;
  std::string binary_;

  std::string sock_dir_;
  std::string sock_path_;

  std::vector<WorkerSlot> slots_;
  std::deque<std::uint64_t> pending_;  // undispatched seed indices
  /// Crashed-seed re-dispatches waiting out their backoff: (due, index).
  std::vector<std::pair<Clock::time_point, std::uint64_t>> deferred_;
  std::vector<char> filled_;
  std::vector<unsigned> crash_count_;  // crashes while the seed was in flight
  std::uint64_t filled_count_ = 0;
  bool draining_ = false;

  BackoffSchedule backoff_;
  std::string chaos_seed_text_;
  Clock::time_point last_progress_{};  // progress-watchdog anchor
  bool deadline_active_ = false;
  Clock::time_point deadline_tp_{};

  obs::MetricsRegistry metrics_;
  obs::MetricsSnapshot worker_metrics_;
  obs::TraceWriter events_;
};

}  // namespace

std::string default_worker_binary() {
  if (const char* env = std::getenv("ESV_WORKER_BIN")) {
    if (*env != '\0') return env;
  }
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string path(buf);
  std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "";
  std::string sibling = path.substr(0, slash + 1) + "esv-worker";
  return ::access(sibling.c_str(), X_OK) == 0 ? sibling : "";
}

campaign::CampaignReport run_distributed(
    const campaign::CampaignConfig& config) {
  return run_distributed(config, BrokerOptions{});
}

campaign::CampaignReport run_distributed(const campaign::CampaignConfig& config,
                                         const BrokerOptions& options) {
  Broker broker(config, options);
  return broker.run();
}

}  // namespace esv::dist
