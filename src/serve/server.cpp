#include "serve/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "chaos/chaos.hpp"
#include "dist/broker.hpp"
#include "serve/protocol.hpp"

namespace esv::serve {

namespace {

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

int exit_code_of(const campaign::CampaignReport& report) {
  // Mirrors esv-verify's campaign exit mapping: 3 for a structured abort,
  // 1 for any violated or errored seed, 0 otherwise.
  if (report.deadline_exceeded) return 3;
  return (report.any_violated() || report.error_seeds != 0) ? 1 : 0;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      loop_({[this](dist::ConnId conn) { on_accept(conn); },
             [this](dist::ConnId conn, std::uint32_t declared) {
               on_header(conn, declared);
             },
             [this](dist::ConnId conn, const std::string& payload) {
               handle_frame(conn, payload);
             },
             [this](dist::ConnId, dist::CloseReason reason) {
               on_close(reason);
             }}) {
  if (options_.socket_path.empty()) {
    throw std::runtime_error("serve: socket_path is required");
  }
  if (options_.concurrency == 0) options_.concurrency = 1;

  // Pre-register every metric so the registry map never mutates after
  // construction (snapshots taken while the loop runs stay race-free).
  metrics_.counter("serve.jobs");
  metrics_.counter("serve.cache_hits");
  metrics_.counter("serve.cache_misses");
  metrics_.counter("serve.rejections");
  metrics_.counter("serve.completed");
  metrics_.counter("serve.cancelled");
  metrics_.counter("serve.journal_errors");
  metrics_.counter("serve.compactions");
  metrics_.counter("serve.compaction_errors");
  metrics_.counter("serve.disconnects_slow");
  metrics_.counter("serve.disconnects_idle");
  metrics_.histogram("serve.queue_depth");

  cache_.set_max_entries(options_.cache_max_entries);

  if (!options_.journal_path.empty()) {
    const RecoveredServe recovered = recover_serve(options_.journal_path);
    if (recovered.header_version != 0 &&
        recovered.header_version != kServeJournalVersion) {
      // Refuse before the resume writer would truncate the file: a v1
      // journal's digests (pre-fix FNV-1a) no longer match any key this
      // build computes, and the file is the operator's data.
      throw std::runtime_error(
          "serve: journal " + options_.journal_path +
          " was written by an older esv version (serve journal format v" +
          std::to_string(recovered.header_version) +
          ", this build writes v" + std::to_string(kServeJournalVersion) +
          "; the content-digest algorithm changed) — move it aside to "
          "start fresh");
    }
    journal_ = std::make_unique<ServeJournal>(
        options_.journal_path, options_.journal_sync,
        recovered.header_valid ? recovered.valid_bytes : 0);
    next_job_id_ = recovered.next_job_id;
    for (const RecoveredServe::CompletedJob& done : recovered.completed) {
      if (!done.cacheable) continue;
      cache_.insert(done.key,
                    CachedResult{done.report_json, done.exit_code, done.job});
    }
    // Accepted-and-acked jobs survive the restart: re-queue them in
    // acceptance order, detached from any client (their results land in
    // the journal and cache; a status frame shows them as queued).
    for (const RecoveredServe::PendingJob& pending : recovered.pending) {
      auto job = std::make_unique<Job>();
      job->id = pending.job;
      job->tenant = pending.tenant;
      job->key = pending.key;
      job->config = pending.config;
      job->cancel = std::make_shared<std::atomic<bool>>(false);
      job->total_seeds =
          pending.config.seed_hi - pending.config.seed_lo + 1;
      const std::uint64_t id = job->id;
      jobs_.emplace(id, std::move(job));
      enqueue(id);
    }
  }

  loop_.listen(dist::listen_unix(options_.socket_path, 64));
}

Server::~Server() {
  for (auto& [id, job] : jobs_) {
    if (job->thread.joinable()) {
      job->cancel->store(true);
      job->thread.join();
    }
  }
  ::unlink(options_.socket_path.c_str());
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  loop_.wake();
}

std::uint64_t Server::queue_depth() const { return queued_count_; }

obs::MetricsSnapshot Server::metrics_snapshot() const {
  return metrics_.snapshot();
}

std::uint64_t Server::cache_hits() const { return cache_.hits(); }
std::uint64_t Server::cache_size() const { return cache_.size(); }

void Server::run() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    dispatch();
    maybe_compact();
    if (!loop_.turn(100)) break;
    loop_.sweep_timeouts(
        std::chrono::milliseconds(options_.write_timeout_ms),
        std::chrono::milliseconds(options_.idle_timeout_ms),
        [this](dist::ConnId conn) { return has_attached_job(conn); });
    drain_events();
  }

  // Graceful stop: cancel running jobs cooperatively and join. The jobs
  // stay unresolved in the journal (no cancelled record — the client did
  // not cancel them), so the next start re-queues and re-runs them.
  for (auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) job->cancel->store(true);
  }
  for (auto& [id, job] : jobs_) {
    if (job->thread.joinable()) job->thread.join();
  }
  // One final drain so jobs that finished cleanly during the stop still
  // journal their completed records and stream their reports, then push
  // whatever the outboxes hold to clients that are still reading (stalled
  // readers forfeit their frames after write_timeout_ms).
  drain_events();
  loop_.flush_blocking(std::chrono::milliseconds(options_.write_timeout_ms));
  if (journal_ != nullptr) journal_->close();
}

void Server::on_accept(dist::ConnId conn) {
  const chaos::Injection inject = chaos::at(chaos::Point::kServeAccept);
  if (inject.action == chaos::Action::kDrop) loop_.close(conn);
  if (inject.action == chaos::Action::kDelay) sleep_ms(inject.arg);
}

void Server::on_header(dist::ConnId conn, std::uint32_t declared) {
  if (options_.max_request_bytes == 0 ||
      declared <= options_.max_request_bytes) {
    return;
  }
  send_rejected(conn, "request of " + std::to_string(declared) +
                          " bytes exceeds the request limit (" +
                          std::to_string(options_.max_request_bytes) +
                          " bytes)");
  // The oversized payload is not buffered, so the stream cannot be
  // re-synchronized: flush the rejection, then close.
  loop_.close_after_flush(conn);
}

void Server::on_close(dist::CloseReason reason) {
  if (reason == dist::CloseReason::kSlowReader) {
    metrics_.counter("serve.disconnects_slow").add();
  } else if (reason == dist::CloseReason::kIdle) {
    metrics_.counter("serve.disconnects_idle").add();
  }
}

bool Server::has_attached_job(dist::ConnId conn) const {
  for (const auto& [id, job] : jobs_) {
    if (job->conn == conn) return true;
  }
  return false;
}

void Server::handle_frame(dist::ConnId conn, const std::string& payload) {
  const chaos::Injection inject = chaos::at(chaos::Point::kServeRx);
  if (inject.action == chaos::Action::kDrop) return;
  if (inject.action == chaos::Action::kDelay) sleep_ms(inject.arg);
  try {
    const dist::Json json = dist::Json::parse(payload);
    switch (frame_kind(json)) {
      case FrameKind::kSubmit:
        handle_submit(conn, json);
        return;
      case FrameKind::kStatus:
        handle_status(conn);
        return;
      case FrameKind::kCancel:
        handle_cancel(conn, json);
        return;
      case FrameKind::kShutdown:
        loop_.send(conn, make_shutdown_ack());
        request_stop();
        return;
      default:
        throw dist::WireError("serve: unexpected client frame");
    }
  } catch (const dist::WireError& e) {
    send_rejected(conn, e.what());
  }
}

void Server::send_rejected(dist::ConnId conn, const std::string& reason) {
  metrics_.counter("serve.rejections").add();
  loop_.send(conn, make_rejected(reason, queued_count_));
}

void Server::handle_submit(dist::ConnId conn, const dist::Json& json) {
  if (json.u64_or("v", kServeProtocolVersion) != kServeProtocolVersion) {
    send_rejected(conn, "unsupported protocol version");
    return;
  }
  campaign::CampaignConfig config;
  try {
    config = campaign::config_from_json(json.at("config"));
    apply_campaign_shape(json, config);
  } catch (const dist::WireError& e) {
    send_rejected(conn, std::string("malformed config: ") + e.what());
    return;
  }
  const std::string tenant = json.string_or("tenant", "default");
  const std::string key = job_key(config).combined();

  // Warm path: identical content already verified — answer from the cache
  // without queueing (cache-hit replies don't consume queue capacity).
  if (config_cacheable(config)) {
    if (const auto cached = cache_.lookup(key)) {
      metrics_.counter("serve.jobs").add();
      metrics_.counter("serve.cache_hits").add();
      const std::uint64_t id = next_job_id_++;
      loop_.send(conn, make_accepted(id, key, /*cached=*/true, queued_count_));
      loop_.send(conn, make_report_frame(id, /*cached=*/true,
                                         cached->exit_code,
                                         cached->report_json));
      return;
    }
    metrics_.counter("serve.cache_misses").add();
  }

  // Bounded queue: explicit backpressure, never a silent drop.
  if (queued_count_ >= options_.queue_limit) {
    send_rejected(conn, "queue full (limit " +
                            std::to_string(options_.queue_limit) + ")");
    return;
  }
  // Per-tenant quota: one tenant's backlog consumes its own allowance, not
  // the shared queue — the rejection names the tenant so the client knows
  // which budget it blew.
  if (options_.tenant_max_queued != 0) {
    const auto it = queues_.find(tenant);
    if (it != queues_.end() &&
        it->second.size() >= options_.tenant_max_queued) {
      send_rejected(conn,
                    "tenant \"" + tenant + "\" queue full (limit " +
                        std::to_string(options_.tenant_max_queued) + ")");
      return;
    }
  }

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->tenant = tenant;
  job->key = key;
  job->config = std::move(config);
  job->conn = conn;
  job->cancel = std::make_shared<std::atomic<bool>>(false);
  job->total_seeds = job->config.seed_hi - job->config.seed_lo + 1;

  // Durability contract: journal the acceptance BEFORE acking it, so an
  // accepted-and-acked job can never be lost to a daemon kill. A journal
  // that cannot persist the job means the job is not accepted.
  if (journal_ != nullptr) {
    try {
      journal_->append_accepted(job->id, job->tenant, job->key, job->config);
    } catch (const journal::JournalError& e) {
      send_rejected(conn, std::string("journal: ") + e.what());
      return;
    }
  }

  const std::uint64_t id = job->id;
  jobs_.emplace(id, std::move(job));
  enqueue(id);
  metrics_.counter("serve.jobs").add();
  metrics_.histogram("serve.queue_depth").record(queued_count_);
  loop_.send(conn, make_accepted(id, key, /*cached=*/false, queued_count_));
}

void Server::enqueue(std::uint64_t job_id) {
  const Job& job = *jobs_.at(job_id);
  auto [it, inserted] = queues_.try_emplace(job.tenant);
  if (inserted) tenant_ring_.push_back(job.tenant);
  it->second.push_back(job_id);
  ++queued_count_;
}

Server::Job* Server::pick_next() {
  if (tenant_ring_.empty() || queued_count_ == 0) return nullptr;
  // Round-robin across tenants, FIFO within one: start after the tenant
  // served last, take the first non-empty queue.
  for (std::size_t step = 0; step < tenant_ring_.size(); ++step) {
    const std::size_t at = (ring_cursor_ + step) % tenant_ring_.size();
    std::deque<std::uint64_t>& queue = queues_.at(tenant_ring_[at]);
    if (queue.empty()) continue;
    // Inflight cap: a tenant at its concurrency quota keeps its place in
    // line (skipped, not rejected) while other tenants use the slot.
    if (options_.tenant_max_inflight != 0) {
      const auto running = running_by_tenant_.find(tenant_ring_[at]);
      if (running != running_by_tenant_.end() &&
          running->second >= options_.tenant_max_inflight) {
        continue;
      }
    }
    const std::uint64_t id = queue.front();
    queue.pop_front();
    --queued_count_;
    ring_cursor_ = at + 1;
    return jobs_.at(id).get();
  }
  return nullptr;
}

void Server::dispatch() {
  while (running_count_ < options_.concurrency) {
    Job* job = pick_next();
    if (job == nullptr) return;
    start_job(*job);
  }
}

void Server::start_job(Job& job) {
  job.state = JobState::kRunning;
  ++running_count_;
  ++running_by_tenant_[job.tenant];
  job.config.cancel = job.cancel;
  job.config.on_result = [this, id = job.id](const campaign::SeedResult&) {
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back({Event::Kind::kProgress, id});
    loop_.wake();
  };
  job.thread = std::thread([this, &job] {
    try {
      job.report = job.config.workers > 0 ? dist::run_distributed(job.config)
                                          : campaign::run(job.config);
    } catch (const std::exception& e) {
      job.failure = e.what();
    }
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back({Event::Kind::kDone, job.id});
    loop_.wake();
  });
}

void Server::drain_events() {
  std::vector<Event> batch;
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    batch.swap(events_);
  }
  // Coalesce progress per job: one frame per drain, carrying the count of
  // progress events seen so far.
  std::map<std::uint64_t, std::uint64_t> progress;
  for (const Event& event : batch) {
    if (event.kind == Event::Kind::kProgress) ++progress[event.job];
  }
  for (const auto& [id, increment] : progress) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    Job& job = *it->second;
    job.progress_done += increment;
    if (job.state == JobState::kRunning) {
      loop_.send(job.conn,
                 make_progress(id, job.progress_done, job.total_seeds));
    }
  }
  for (const Event& event : batch) {
    if (event.kind != Event::Kind::kDone) continue;
    const auto it = jobs_.find(event.job);
    if (it == jobs_.end()) continue;
    finish_job(*it->second);
    // Terminal jobs leave the map once their last frame is out: the
    // journal and cache already hold everything a replay needs, so a
    // long-lived daemon's memory does not grow with every job it ever
    // served (finish_job joined the executor thread).
    jobs_.erase(it);
  }
}

void Server::note_journal_error(const std::string& what) {
  journal_degraded_ = true;
  metrics_.counter("serve.journal_errors").add();
  std::cerr << "esv-serve: journal: " << what << "\n";
}

bool Server::journal_completed(const Job& job, bool cacheable, int exit_code,
                               const std::string& report_json) {
  if (journal_ == nullptr) return true;
  try {
    journal_->append_completed(job.id, job.key, cacheable, exit_code,
                               report_json);
    return true;
  } catch (const journal::JournalError& e) {
    note_journal_error(e.what());
    return false;
  }
}

void Server::resolve_cancelled(std::uint64_t job_id) {
  // A failed append leaves the job pending, so the next start re-runs a
  // campaign the client no longer wants: count it as journal degradation
  // and carry on.
  if (journal_ != nullptr) {
    try {
      journal_->append_cancelled(job_id);
    } catch (const journal::JournalError& e) {
      note_journal_error(e.what());
    }
  }
  metrics_.counter("serve.cancelled").add();
}

void Server::finish_job(Job& job) {
  if (job.thread.joinable()) job.thread.join();
  if (running_count_ > 0) --running_count_;
  const auto running = running_by_tenant_.find(job.tenant);
  if (running != running_by_tenant_.end() && running->second > 0) {
    --running->second;
  }

  if (!job.failure.empty()) {
    // The campaign never started (config/compile/spec error). Exit 2,
    // like esv-verify's usage/config errors; never cached.
    std::string error_json = "{\"error\":";
    error_json += dist::json_string(job.failure);
    error_json += "}";
    const bool durable =
        journal_completed(job, /*cacheable=*/false, 2, error_json);
    job.state = JobState::kDone;
    metrics_.counter("serve.completed").add();
    loop_.send(job.conn, make_report_frame(job.id, /*cached=*/false, 2,
                                           error_json, durable));
    return;
  }

  if (job.report.cancelled) {
    if (job.client_cancelled) {
      // Client-cancelled: resolve the job in the journal and send the
      // terminal frame.
      resolve_cancelled(job.id);
      loop_.send(job.conn, make_cancelled(job.id));
    }
    // Shutdown-cancelled jobs stay unresolved on purpose: the next start
    // re-queues and re-runs them.
    job.state = JobState::kCancelled;
    return;
  }

  const std::string report_json = job.report.to_json(/*include_timing=*/false);
  const int exit_code = exit_code_of(job.report);
  bool cacheable = config_cacheable(job.config) && !job.report.degraded &&
                   !job.report.deadline_exceeded;
  // Durability contract: journal the completion BEFORE streaming it, so a
  // restarted daemon serves byte-identical reports for completed jobs.
  // When the append fails the contract is void for this job: skip the
  // cache (a cached reply would claim bytes the journal cannot replay)
  // and tell the client via the frame's durable flag.
  const bool durable = journal_completed(job, cacheable, exit_code,
                                         report_json);
  if (!durable) cacheable = false;
  if (cacheable) {
    cache_.insert(job.key, CachedResult{report_json, exit_code, job.id});
  }
  job.state = JobState::kDone;
  metrics_.counter("serve.completed").add();
  loop_.send(job.conn, make_report_frame(job.id, /*cached=*/false, exit_code,
                                         report_json, durable));
}

void Server::handle_cancel(dist::ConnId conn, const dist::Json& json) {
  const std::uint64_t id = json.u64_or("job", 0);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->state == JobState::kDone ||
      it->second->state == JobState::kCancelled) {
    send_rejected(conn, "unknown or finished job " + std::to_string(id));
    return;
  }
  Job& job = *it->second;
  job.client_cancelled = true;
  if (job.state == JobState::kQueued) {
    std::deque<std::uint64_t>& queue = queues_.at(job.tenant);
    queue.erase(std::remove(queue.begin(), queue.end(), id), queue.end());
    --queued_count_;
    job.state = JobState::kCancelled;
    resolve_cancelled(id);
    const dist::ConnId submitter = job.conn;
    loop_.send(submitter, make_cancelled(id));
    if (submitter != conn) loop_.send(conn, make_cancelled(id));
    jobs_.erase(it);  // terminal: never ran, nothing left to track
    return;
  }
  // Running: cooperative — the campaign stops claiming seeds and the
  // terminal cancelled frame goes to the submitter from finish_job. Ack
  // the canceller now (unless it IS the submitter, which gets the
  // terminal frame).
  job.cancel->store(true);
  if (job.conn != conn) loop_.send(conn, make_cancelled(id));
}

void Server::handle_status(dist::ConnId conn) {
  std::string out = "{\"type\":\"status_reply\"";
  out += ",\"queue_depth\":" + std::to_string(queued_count_);
  out += ",\"running\":" + std::to_string(running_count_);
  out += ",\"completed\":" +
         std::to_string(metrics_.counter("serve.completed").value());
  out += ",\"cancelled\":" +
         std::to_string(metrics_.counter("serve.cancelled").value());
  out += ",\"rejections\":" +
         std::to_string(metrics_.counter("serve.rejections").value());
  out += journal_degraded_ ? ",\"journal_degraded\":true"
                           : ",\"journal_degraded\":false";
  out += ",\"journal_errors\":" +
         std::to_string(metrics_.counter("serve.journal_errors").value());
  out += ",\"journal_bytes\":" + std::to_string(journal_tail_bytes());
  out += ",\"journal_snapshot_bytes\":" +
         std::to_string(journal_snapshot_bytes());
  out += ",\"compactions\":" +
         std::to_string(metrics_.counter("serve.compactions").value());
  out += ",\"cache\":{\"entries\":" + std::to_string(cache_.size());
  out += ",\"hits\":" + std::to_string(cache_.hits());
  out += ",\"misses\":" + std::to_string(cache_.misses());
  out += ",\"evictions\":" + std::to_string(cache_.evictions());
  out += "},\"jobs\":[";
  bool first = true;
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::kQueued && job->state != JobState::kRunning) {
      continue;
    }
    if (!first) out += ",";
    first = false;
    out += "{\"job\":" + std::to_string(id);
    out += ",\"tenant\":" + dist::json_string(job->tenant);
    out += job->state == JobState::kQueued ? ",\"state\":\"queued\"}"
                                           : ",\"state\":\"running\"}";
  }
  out += "]}";
  loop_.send(conn, out);
}

void Server::maybe_compact() {
  if (journal_ == nullptr || options_.journal_max_bytes == 0) return;
  if (journal_->append_disabled()) return;
  const std::uint64_t tail = journal_->tail_bytes();
  if (tail < options_.journal_max_bytes || tail < compact_after_bytes_) {
    return;
  }
  CompactionState live;
  live.next_job_id = next_job_id_;
  // jobs_ is keyed by id and ids are assigned in acceptance order, so this
  // walk preserves the FIFO the journal promises. Running jobs are still
  // unresolved (accepted, not completed) and stay in the snapshot.
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::kQueued && job->state != JobState::kRunning) {
      continue;
    }
    RecoveredServe::PendingJob pending;
    pending.job = id;
    pending.tenant = job->tenant;
    pending.key = job->key;
    pending.config = job->config;
    live.pending.push_back(std::move(pending));
  }
  cache_.for_each([&live](const std::string& key, const CachedResult& result) {
    RecoveredServe::CompletedJob done;
    done.job = result.job;
    done.key = key;
    done.cacheable = true;
    done.exit_code = result.exit_code;
    done.report_json = result.report_json;
    live.completed.push_back(std::move(done));
  });
  try {
    journal_->compact(live);
    metrics_.counter("serve.compactions").add();
    compact_after_bytes_ = 0;
  } catch (const journal::JournalError& e) {
    metrics_.counter("serve.compaction_errors").add();
    note_journal_error(e.what());
    // Degrade, don't die: the tail still holds everything (a pre-swap
    // failure) or the snapshot does (a tail-restart failure, which also
    // latched append_disabled). Retry only after the tail grows further so
    // a persistent ENOSPC cannot spin the loop.
    compact_after_bytes_ =
        tail + std::max<std::uint64_t>(options_.journal_max_bytes / 4, 4096);
  }
}

}  // namespace esv::serve
