// esv-serve: a long-lived verification service (docs/SERVE.md).
//
// The Server accepts verification jobs — a complete CampaignConfig, i.e.
// spec + MiniC program + campaign shape + budget — over a Unix-domain
// socket speaking the length-prefixed JSON wire (serve/protocol.hpp), and
// schedules them onto embedded campaign runners (campaign::run in-process,
// dist::run_distributed when the job asks for worker processes).
//
// Scheduling is multi-tenant FIFO-with-fairness: each tenant gets its own
// FIFO queue and dispatch round-robins across tenants, so one tenant's
// thousand-job backlog cannot starve another's single job. The queue is
// bounded (ServerOptions::queue_limit); a submit past the bound gets an
// explicit rejected frame — backpressure is never a silent drop.
//
// Results are cached content-addressed (serve/cache.hpp): a resubmission of
// identical content is answered from the cache without running anything,
// byte-identically. With a journal configured (serve/persist.hpp) the
// daemon is restartable: accepted jobs are journaled before they are acked
// and completed reports before they are streamed, so a SIGKILL loses no
// accepted-and-acked job and a restarted daemon serves byte-identical
// reports for completed ones.
//
// Disk-budget governance (docs/JOURNAL.md "Compaction"): with
// ServerOptions::journal_max_bytes set, the loop compacts the journal
// whenever the append tail reaches the budget — live state (pending jobs +
// cache-resident completions) becomes a fresh snapshot segment, the tail
// truncates to a bare header, and the disk footprint stays proportional to
// live state instead of service history. A failed compaction (ENOSPC, torn
// write) degrades instead of crashing: the daemon keeps serving and a
// restart recovers truthfully from whichever segments survived.
//
// Transport: clients sit on the shared poll loop (dist/loop.hpp). Replies
// buffer in its per-connection outbox, so one stalled reader never blocks
// the loop; a connection whose outbox makes no progress for
// write_timeout_ms (or, when idle_timeout_ms is set, sits idle with no job
// attached) is closed.
//
// Threading: one event-loop thread (run()) owns every socket, the queue,
// the cache, and the journal. Campaign execution happens on up to
// ServerOptions::concurrency executor threads; completions and progress
// marshal back to the loop through its wake fd. request_stop() is
// async-signal-safe (one write(2) on that fd), so SIGTERM handlers can
// call it directly.
//
// Chaos points (docs/RESILIENCE.md): serve.accept is probed once per
// accepted connection (drop closes it on arrival, delay stalls it);
// serve.rx once per decoded client frame (drop discards the frame, delay
// stalls its handling).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "dist/loop.hpp"
#include "dist/wire.hpp"
#include "journal/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"

namespace esv::serve {

struct ServerOptions {
  /// Path for the listening Unix-domain socket (required). An existing
  /// socket file is replaced.
  std::string socket_path;
  /// Serve journal path; empty runs without persistence (a restart then
  /// recovers nothing).
  std::string journal_path;
  journal::SyncPolicy journal_sync = journal::SyncPolicy::kBatch;
  /// Jobs executed concurrently (each on its own executor thread; a job
  /// may itself use --jobs threads or --workers processes).
  unsigned concurrency = 1;
  /// Bound on queued (accepted, not yet running) jobs across all tenants;
  /// a submit past it is rejected explicitly.
  std::size_t queue_limit = 64;

  // --- disk-budget governance (docs/SERVE.md) ----------------------------
  /// Tail-segment byte budget that arms journal compaction: when the
  /// append tail reaches this, live state is snapshotted and the tail
  /// truncated (ServeJournal::compact). 0 (the default) never compacts.
  std::uint64_t journal_max_bytes = 0;
  /// LRU bound on cached results (0 = unbounded). With compaction armed
  /// this also bounds the snapshot segment: the snapshot holds exactly the
  /// pending jobs plus the cache-resident completions.
  std::size_t cache_max_entries = 0;

  // --- overload quotas ---------------------------------------------------
  /// Per-tenant bound on queued jobs (0 = only the global queue_limit).
  std::size_t tenant_max_queued = 0;
  /// Per-tenant bound on concurrently running jobs (0 = unbounded); a
  /// tenant at its cap is skipped by the dispatcher, not rejected.
  std::size_t tenant_max_inflight = 0;
  /// Bound on one inbound request frame's declared payload length; an
  /// oversized submit is rejected at the frame header, before its payload
  /// is buffered. 0 disables (the wire's 256 MiB ceiling still applies).
  std::uint32_t max_request_bytes = kDefaultMaxRequestBytes;

  // --- client timeouts ---------------------------------------------------
  /// Close a connection whose outbound buffer has made no progress for
  /// this long — one stalled reader must not hold daemon memory forever.
  std::uint64_t write_timeout_ms = 5000;
  /// Close a connection with no inbound bytes, no buffered output and no
  /// attached job for this long. 0 (the default) never times idle out.
  std::uint64_t idle_timeout_ms = 0;
};

class Server {
 public:
  /// Binds the socket and, when a journal is configured, recovers it:
  /// pending jobs re-queue in acceptance order, completed cacheable
  /// reports re-seed the cache, and the journal resumes after its valid
  /// prefix. Throws std::runtime_error / journal::JournalError on setup
  /// failure.
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Event loop; returns after request_stop() (or a client shutdown
  /// frame). Joins every executor thread before returning — running jobs
  /// are cancelled cooperatively, and stay pending in the journal for the
  /// next start.
  void run();

  /// Stops the loop. Callable from any thread and from signal handlers
  /// (async-signal-safe: a single write(2) on the loop's wake fd).
  void request_stop();

  // --- introspection (tests, bench, the status frame) --------------------
  const std::string& socket_path() const { return options_.socket_path; }
  std::uint64_t queue_depth() const;
  obs::MetricsSnapshot metrics_snapshot() const;
  std::uint64_t cache_hits() const;
  std::uint64_t cache_size() const;
  /// Jobs currently tracked in memory (queued or running). Terminal jobs
  /// are dropped once their last frame is sent, so a long-lived daemon's
  /// footprint is bounded by the queue, not by its service history. Only
  /// meaningful once run() has returned (the loop thread owns the map).
  std::size_t jobs_tracked() const { return jobs_.size(); }
  /// True once any journal append after acceptance has failed (status
  /// frames carry it as "journal_degraded"). Same ownership caveat.
  bool journal_degraded() const { return journal_degraded_; }
  /// Journal segment sizes (0 without a journal). Same ownership caveat.
  std::uint64_t journal_tail_bytes() const {
    return journal_ != nullptr ? journal_->tail_bytes() : 0;
  }
  std::uint64_t journal_snapshot_bytes() const {
    return journal_ != nullptr ? journal_->snapshot_bytes() : 0;
  }
  std::uint64_t cache_evictions() const { return cache_.evictions(); }

 private:
  enum class JobState { kQueued, kRunning, kDone, kCancelled };

  struct Job {
    std::uint64_t id = 0;
    std::string tenant;
    std::string key;
    campaign::CampaignConfig config;
    JobState state = JobState::kQueued;
    /// Connection streaming this job's frames; sends to a closed one are
    /// dropped (the job still runs — results land in journal and cache).
    dist::ConnId conn = dist::kNoConn;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::uint64_t total_seeds = 0;
    std::uint64_t progress_done = 0;
    /// True when a client asked for the cancel (vs a shutdown cancel,
    /// which leaves the job pending in the journal for the next start).
    bool client_cancelled = false;

    std::thread thread;
    // Executor -> loop handoff (guarded by Server::events_mutex_).
    campaign::CampaignReport report;
    std::string failure;  // non-empty when the campaign threw
  };

  struct Event {
    enum class Kind { kProgress, kDone } kind = Kind::kProgress;
    std::uint64_t job = 0;
  };

  /// Loop callbacks: the serve.accept probe, the max_request_bytes check
  /// and the slow/idle disconnect counters.
  void on_accept(dist::ConnId conn);
  void on_header(dist::ConnId conn, std::uint32_t declared);
  void on_close(dist::CloseReason reason);
  /// A connection with a live job attached is never idle.
  bool has_attached_job(dist::ConnId conn) const;
  /// Snapshot-then-swap journal compaction when the tail exceeds
  /// journal_max_bytes (docs/JOURNAL.md). Failure degrades: the daemon
  /// keeps serving and retries after the tail grows further.
  void maybe_compact();
  void handle_frame(dist::ConnId conn, const std::string& payload);
  void handle_submit(dist::ConnId conn, const dist::Json& json);
  void handle_cancel(dist::ConnId conn, const dist::Json& json);
  void handle_status(dist::ConnId conn);
  /// Every rejected frame goes through here so serve.rejections counts
  /// them all.
  void send_rejected(dist::ConnId conn, const std::string& reason);
  void enqueue(std::uint64_t job_id);
  Job* pick_next();
  void dispatch();
  void start_job(Job& job);
  void drain_events();
  void finish_job(Job& job);
  /// Appends the completed record; false (journal degraded) means the
  /// report must be streamed with durable:false and never cached.
  bool journal_completed(const Job& job, bool cacheable, int exit_code,
                         const std::string& report_json);
  void note_journal_error(const std::string& what);
  /// Journals a client cancel (degrading on failure) and counts it.
  void resolve_cancelled(std::uint64_t job_id);

  ServerOptions options_;
  dist::Loop loop_;

  /// Live (queued or running) jobs only; a job is erased when its terminal
  /// frame goes out — the journal and cache carry the durable record.
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;
  /// Per-tenant FIFO queues of job ids plus the round-robin tenant ring.
  std::map<std::string, std::deque<std::uint64_t>> queues_;
  std::vector<std::string> tenant_ring_;
  std::size_t ring_cursor_ = 0;
  std::uint64_t queued_count_ = 0;
  unsigned running_count_ = 0;
  /// Running jobs per tenant, for the tenant_max_inflight dispatch cap.
  std::map<std::string, std::size_t> running_by_tenant_;
  /// After a failed compaction: retry only once the tail grows past this,
  /// so a persistent ENOSPC cannot spin the loop.
  std::uint64_t compact_after_bytes_ = 0;

  ResultCache cache_;
  std::unique_ptr<ServeJournal> journal_;
  /// Latched on the first post-acceptance append failure: completions or
  /// cancellations may be missing from the journal, so a restart can
  /// re-run work whose result a client already received.
  bool journal_degraded_ = false;

  std::mutex events_mutex_;
  std::vector<Event> events_;
  std::atomic<bool> stop_requested_{false};

  obs::MetricsRegistry metrics_;
};

}  // namespace esv::serve
