// Campaign broker: runs a multi-seed campaign across out-of-process worker
// shards (tools/esv-worker) with crash isolation. The broker owns a Unix
// domain socket, spawns `config.workers` worker processes, shards the seed
// range to them with a work-stealing scheduler, and merges the streamed
// RESULT frames into the same CampaignReport the in-process runner builds —
// finalized by the shared campaign::finalize_report, so every deterministic
// rendering is byte-identical for any workers x jobs combination and for the
// in-process runner.
//
// Transport: workers connect to the shared poll loop (dist/loop.hpp); frames
// to them go out through the blocking write_frame (one wire.tx probe each).
//
// Failure containment (the matrices in docs/DISTRIBUTED.md and
// docs/RESILIENCE.md):
//   * worker crash (exit, signal, SIGKILL) — its in-flight seeds are
//     re-dispatched to surviving workers under config.seed_retries, and the
//     slot respawns up to BrokerOptions::max_respawns times; both waits use
//     exponential backoff with deterministic jitter
//   * worker hang — no frame within heartbeat_timeout_seconds is treated as
//     a crash: SIGKILL, then the crash path above. An optional progress
//     watchdog additionally kills workers holding seeds when no RESULT has
//     landed anywhere for progress_timeout_seconds
//   * lost ASSIGN — a worker heartbeating idle while seeds are booked to it
//     gets its booking re-sent (duplicate RESULTs are deduped)
//   * every worker dead with no respawns left — the broker degrades: the
//     remaining seeds run in-process on --jobs threads and the report gains
//     an operational `degraded` flag (degrade_in_process=false restores the
//     old behaviour: deterministic `infrastructure`-kind abandonment)
//   * per-seed re-dispatch budget exhausted — that seed becomes a
//     deterministic `infrastructure`-kind SeedResult (poison-seed guard)
//   * config.campaign_timeout_seconds exceeded — structured abort: the
//     remaining seeds get deterministic deadline captures and the report is
//     marked deadline_exceeded
#pragma once

#include <chrono>
#include <string>

#include "campaign/campaign.hpp"
#include "dist/loop.hpp"

namespace esv::dist {

struct BrokerOptions {
  /// Respawn budget per worker slot (a slot that keeps dying stays dead
  /// after this many respawns).
  unsigned max_respawns = 2;
  /// A worker silent for this long (no result, metrics, or heartbeat; the
  /// worker side heartbeats every 200ms) is SIGKILLed and treated as
  /// crashed. Also bounds the spawn -> HELLO handshake.
  double heartbeat_timeout_seconds = 30.0;
  /// How long to wait after SHUTDOWN for the final METRICS frames before
  /// killing stragglers.
  double shutdown_grace_seconds = 5.0;
  /// Seeds per ASSIGN frame; 0 picks clamp(count / (workers * 4), 1, 64).
  std::uint64_t shard_size = 0;

  /// Exponential backoff for worker respawns and crashed-seed re-dispatch:
  /// attempt n (0-based) waits base * 2^n seconds, capped, then jittered
  /// deterministically into [50%, 100%] of that (seeded by backoff_seed).
  double backoff_base_seconds = 0.05;
  double backoff_cap_seconds = 2.0;
  std::uint64_t backoff_seed = 1;

  /// Progress watchdog: when > 0 and no RESULT has landed for this long
  /// while seeds are booked to workers, every worker holding seeds is
  /// killed (and recovered through the normal crash path). Catches lost
  /// work that heartbeats alone would keep alive forever. 0 disables.
  double progress_timeout_seconds = 0.0;
  /// A connected worker heartbeating queued=0/busy=0 while seeds are booked
  /// to it lost an ASSIGN in flight; its booking is re-sent after this long
  /// (rate limited per ASSIGN). Duplicate results are deduped, so this is
  /// always safe.
  double reassign_after_seconds = 1.0;
  /// When every slot is dead with no respawn budget left, finish the
  /// remaining seeds in-process instead of abandoning them
  /// (docs/RESILIENCE.md "graceful degradation").
  bool degrade_in_process = true;

  /// Self-chaos plan forwarded to every spawned worker via ESV_CHAOS_PLAN /
  /// ESV_CHAOS_SEED (docs/RESILIENCE.md). Empty forwards nothing — and
  /// scrubs any inherited chaos environment so chaos never leaks into
  /// child processes of a clean campaign.
  std::string chaos_plan_text;
  std::uint64_t chaos_seed = 1;
};

/// Resolves the esv-worker binary: $ESV_WORKER_BIN if set, else the
/// `esv-worker` sibling of the running executable (/proc/self/exe). Returns
/// an empty string when neither resolves to an executable file.
std::string default_worker_binary();

/// Runs `config` distributed over config.workers processes (clamped to at
/// least 1 and at most the seed count). Throws std::invalid_argument when no
/// worker binary can be resolved, plus everything campaign::run throws on
/// configuration errors (the broker validates the config before spawning).
campaign::CampaignReport run_distributed(const campaign::CampaignConfig& config);
campaign::CampaignReport run_distributed(const campaign::CampaignConfig& config,
                                         const BrokerOptions& options);

}  // namespace esv::dist
