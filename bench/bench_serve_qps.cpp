// esv-serve service throughput (docs/SERVE.md): jobs/s and per-job latency
// through the full daemon path — socket, frame codec, scheduler, embedded
// campaign runner — plus the content-digest cache's warm-resubmission
// speedup.
//
// Two measured phases over one in-process Server on a real Unix-domain
// socket:
//
//   cold: N distinct jobs (unique content digests), submitted sequentially;
//   every one runs a real campaign.
//
//   warm: the same N jobs resubmitted; every one is answered from the
//   content-addressed cache without running anything.
//
// The acceptance bar is warm >= 10x faster than cold (per-job median
// latency): the cache must turn a verification re-run into a lookup.
//
// With --journal-max-bytes the same two phases run a second time against a
// journal whose compaction is armed (docs/JOURNAL.md): the tail budget
// forces snapshot-then-swap rotations mid-benchmark, and the result adds
// the armed warm p50 plus its overhead over the unarmed run — the
// disk-budget machinery must cost the warm path (almost) nothing.
//
//   bench_serve_qps [--jobs=N] [--concurrency=C] [--gate-speedup=X]
//                   [--journal=FILE] [--journal-max-bytes=N]
//                   [--gate-compaction-overhead=PCT] [--json=FILE]
//
//   --jobs=N            jobs per phase (default 24)
//   --concurrency=C     server executor threads (default 2)
//   --gate-speedup=X    exit 1 if warm median latency is not at least X
//                       times faster than cold (the recorded bar is 10;
//                       BENCH_serve.json)
//   --journal=FILE      journal path prefix (the pid is appended); both
//                       runs journal, so the comparison isolates compaction
//   --journal-max-bytes=N  tail budget for the armed run (default 16384
//                       when --journal is given; ignored without it)
//   --gate-compaction-overhead=PCT  exit 1 if the armed warm p50 exceeds
//                       the unarmed one by more than PCT percent (the
//                       recorded bar is 10; requires --journal)
//   --json=FILE         also write the result object to FILE
//
// The gates make the binary usable as an opt-in CTest perf check:
//   ctest -C perf -L perf        (or: cmake --build build --target check-perf)
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/loop.hpp"
#include "dist/wire.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace esv;

// Thousands of statements per seed: a cold job costs real campaign work
// (like actual verification jobs do), so the warm/cold ratio measures the
// cache, not the frame codec.
const char* kProgram = R"(
enum { LED_OFF = 0, LED_ON = 1 };
int led;
int cycles;
void main(void) {
  led = LED_OFF;
  while (cycles < 2000) {
    int enable = __in(enable);
    if (enable == 1) {
      if (led == LED_OFF) { led = LED_ON; } else { led = LED_OFF; }
    } else {
      led = LED_OFF;
    }
    cycles = cycles + 1;
  }
}
)";

const char* kSpec = R"(
input enable 0 1

prop led_on    = led == LED_ON
prop led_off   = led == LED_OFF

check legal: G (led_on || led_off)
)";

std::uint64_t parse_u64(const std::string& text, std::uint64_t fallback) {
  std::uint64_t value = fallback;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

/// One submit, blocking until the report frame; returns latency in
/// milliseconds (negative on protocol failure).
double submit_and_wait(int fd, const campaign::CampaignConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  dist::write_frame(fd, serve::make_submit("bench", config));
  for (;;) {
    const auto payload = dist::read_frame(fd);
    if (!payload) return -1.0;
    const dist::Json json = dist::Json::parse(*payload);
    const serve::FrameKind kind = serve::frame_kind(json);
    if (kind == serve::FrameKind::kReport) break;
    if (kind == serve::FrameKind::kRejected) return -1.0;
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

struct BenchRun {
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t compactions = 0;
  bool ok = false;
};

/// One complete cold+warm benchmark against a fresh in-process Server.
BenchRun run_bench(serve::ServerOptions options,
                   const std::vector<campaign::CampaignConfig>& configs) {
  BenchRun result;
  serve::Server server(std::move(options));
  std::thread loop([&server] { server.run(); });
  const int fd = dist::connect_unix(server.socket_path());
  if (fd < 0) {
    std::cerr << "bench_serve_qps: cannot connect\n";
    server.request_stop();
    loop.join();
    return result;
  }
  const auto run_phase = [&](std::vector<double>& latencies) {
    const auto start = std::chrono::steady_clock::now();
    for (const campaign::CampaignConfig& config : configs) {
      const double ms = submit_and_wait(fd, config);
      if (ms < 0.0) return -1.0;
      latencies.push_back(ms);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  result.cold_seconds = run_phase(result.cold_ms);
  result.warm_seconds = run_phase(result.warm_ms);
  ::close(fd);
  server.request_stop();
  loop.join();
  std::remove(server.socket_path().c_str());
  if (result.cold_seconds < 0.0 || result.warm_seconds < 0.0) {
    std::cerr << "bench_serve_qps: submit failed\n";
    return result;
  }
  result.cache_hits = server.cache_hits();
  result.compactions =
      server.metrics_snapshot().counters.at("serve.compactions");
  result.ok = true;
  return result;
}

void remove_journal_pair(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());
  std::remove((path + ".snap.tmp").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t jobs = 24;
  unsigned concurrency = 2;
  double gate_speedup = 0.0;
  double gate_compaction_overhead = 0.0;
  std::string journal_prefix;
  std::uint64_t journal_max_bytes = 16 * 1024;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = parse_u64(arg.substr(7), jobs);
    } else if (arg.rfind("--concurrency=", 0) == 0) {
      concurrency = static_cast<unsigned>(parse_u64(arg.substr(14), 2));
    } else if (arg.rfind("--gate-speedup=", 0) == 0) {
      gate_speedup = static_cast<double>(parse_u64(arg.substr(15), 0));
    } else if (arg.rfind("--journal=", 0) == 0) {
      journal_prefix = arg.substr(10);
    } else if (arg.rfind("--journal-max-bytes=", 0) == 0) {
      journal_max_bytes = parse_u64(arg.substr(20), journal_max_bytes);
    } else if (arg.rfind("--gate-compaction-overhead=", 0) == 0) {
      gate_compaction_overhead =
          static_cast<double>(parse_u64(arg.substr(27), 0));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::cerr << "bench_serve_qps: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (gate_compaction_overhead > 0.0 && journal_prefix.empty()) {
    std::cerr << "bench_serve_qps: --gate-compaction-overhead requires "
                 "--journal\n";
    return 2;
  }

  // Each job gets a unique content digest (max_steps shifts the config
  // digest but not the runtime), so the cold phase never hits the cache
  // and the warm phase always does.
  std::vector<campaign::CampaignConfig> configs;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    campaign::CampaignConfig config;
    config.program_source = kProgram;
    config.spec_text = kSpec;
    config.seed_lo = 1;
    config.seed_hi = 2;
    config.max_steps = 1'000'000 + i;
    configs.push_back(std::move(config));
  }

  serve::ServerOptions options;
  options.socket_path = "/tmp/esv_bench_serve_" +
                        std::to_string(::getpid()) + ".sock";
  options.concurrency = concurrency;
  options.queue_limit = jobs + 8;
  const std::string pid_text = std::to_string(::getpid());
  if (!journal_prefix.empty()) {
    options.journal_path = journal_prefix + "." + pid_text;
    remove_journal_pair(options.journal_path);
  }

  const BenchRun base = run_bench(options, configs);
  if (!journal_prefix.empty()) remove_journal_pair(options.journal_path);
  if (!base.ok) return 2;
  if (base.cache_hits != jobs) {
    std::cerr << "bench_serve_qps: warm phase expected " << jobs
              << " cache hits, saw " << base.cache_hits << "\n";
    return 2;
  }

  // The armed run: identical load against an identical journal, plus a
  // tail budget small enough that compaction fires mid-benchmark.
  BenchRun armed;
  if (!journal_prefix.empty()) {
    serve::ServerOptions armed_options = options;
    armed_options.socket_path =
        "/tmp/esv_bench_serve_armed_" + pid_text + ".sock";
    armed_options.journal_path = journal_prefix + ".armed." + pid_text;
    armed_options.journal_max_bytes = journal_max_bytes;
    remove_journal_pair(armed_options.journal_path);
    armed = run_bench(armed_options, configs);
    remove_journal_pair(armed_options.journal_path);
    if (!armed.ok) return 2;
    if (armed.compactions == 0) {
      std::cerr << "bench_serve_qps: the armed run never compacted — "
                   "shrink --journal-max-bytes\n";
      return 2;
    }
  }

  const double cold_p50 = percentile(base.cold_ms, 0.50);
  const double cold_p99 = percentile(base.cold_ms, 0.99);
  const double warm_p50 = percentile(base.warm_ms, 0.50);
  const double warm_p99 = percentile(base.warm_ms, 0.99);
  const double speedup = warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0;

  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\n";
  out << "  \"jobs_per_phase\": " << jobs << ",\n";
  out << "  \"concurrency\": " << concurrency << ",\n";
  out << "  \"cold_jobs_per_second\": " << (jobs / base.cold_seconds)
      << ",\n";
  out << "  \"cold_p50_ms\": " << cold_p50 << ",\n";
  out << "  \"cold_p99_ms\": " << cold_p99 << ",\n";
  out << "  \"warm_jobs_per_second\": " << (jobs / base.warm_seconds)
      << ",\n";
  out << "  \"warm_p50_ms\": " << warm_p50 << ",\n";
  out << "  \"warm_p99_ms\": " << warm_p99 << ",\n";
  double overhead_pct = 0.0;
  if (!journal_prefix.empty()) {
    const double armed_warm_p50 = percentile(armed.warm_ms, 0.50);
    overhead_pct = warm_p50 > 0.0
                       ? (armed_warm_p50 / warm_p50 - 1.0) * 100.0
                       : 0.0;
    out << "  \"armed_cold_p50_ms\": " << percentile(armed.cold_ms, 0.50)
        << ",\n";
    out << "  \"armed_warm_p50_ms\": " << armed_warm_p50 << ",\n";
    out << "  \"armed_compactions\": " << armed.compactions << ",\n";
    out << "  \"compaction_overhead_warm_p50_pct\": " << overhead_pct
        << ",\n";
  }
  out << "  \"warm_speedup_p50\": " << speedup << "\n";
  out << "}\n";
  std::cout << out.str();
  if (!json_path.empty()) {
    std::ofstream file(json_path, std::ios::trunc);
    file << out.str();
  }

  if (gate_speedup > 0.0 && speedup < gate_speedup) {
    std::cerr << "bench_serve_qps: GATE FAILED: warm speedup " << speedup
              << "x is under the " << gate_speedup << "x bar\n";
    return 1;
  }
  if (gate_compaction_overhead > 0.0 &&
      overhead_pct > gate_compaction_overhead) {
    std::cerr << "bench_serve_qps: GATE FAILED: armed warm p50 is "
              << overhead_pct << "% over the unarmed run (bar "
              << gate_compaction_overhead << "%)\n";
    return 1;
  }
  return 0;
}
