// esv-verify — command-line front end for the library.
//
// Verifies temporal properties of a mini-C program under either of the
// paper's approaches:
//
//   esv-verify program.c spec.esv [options]
//
//     --approach=1|2       microprocessor model | derived ESW model (default 2)
//     --max-steps=N        statement/cycle budget (default 1,000,000)
//     --seed=S             stimulus seed (default 1)
//     --mode=progression|automaton   monitor mode (default compiled)
//     --monitor-mode=interpreted|automaton|compiled|both
//                          full monitor-mode spelling (docs/MONITORS.md,
//                          default compiled):
//                          "interpreted" is the progression rewriter,
//                          "compiled" the flat-transition-table lowering,
//                          "both" runs the two in lockstep and reports any
//                          divergence as a monitor error (exit 3)
//     --vcd=FILE           dump a waveform of all propositions
//     --witness=N          keep the last N steps as a violation witness
//     --faults=FILE        inject faults from a fault plan (docs/FAULTS.md)
//     --metrics=FILE       write run metrics as JSON (docs/OBSERVABILITY.md)
//     --trace=FILE         write the JSONL event trace (single runs only)
//     --quiet              only print the final verdict table
//
//   Campaign mode (docs/CAMPAIGN.md) replaces the single run by a
//   multi-seed sweep with deterministic aggregation:
//     --campaign=LO..HI    verify every seed in [LO, HI] (inclusive)
//     --jobs=N             campaign worker threads (default 1)
//     --workers=N          out-of-process worker shards (docs/DISTRIBUTED.md);
//                          total parallelism is workers x jobs
//     --report=FILE        write the JSON campaign report to FILE
//     --report-timing=on|off  include the wall-clock fields in --report
//                          (default on; off makes the file byte-identical
//                          across runs, jobs, and workers counts)
//     --trace-dir=DIR      write each seed's JSONL trace to DIR
//     --seed-timeout=SECS  per-seed wall-clock watchdog (default off)
//     --seed-retries=N     retries for infrastructure errors (default 0)
//     --seed-mem-limit=MB  per-seed address-space ceiling, enforced by the
//                          worker shards (requires --workers; docs/JOURNAL.md)
//     --journal=FILE       write-ahead journal of finished seeds
//                          (docs/JOURNAL.md)
//     --journal-sync=record|batch|none   journal fsync policy (default batch)
//     --resume             replay FILE, skip the seeds it already holds, and
//                          re-run only the rest; the final report is byte-
//                          identical to an uninterrupted run
//     --campaign-timeout=SECS  whole-campaign wall-clock deadline: past it
//                          the run aborts in a structured way (unfinished
//                          seeds become deterministic infrastructure
//                          captures, the report is flagged, exit 3)
//     --chaos=PLAN         self-chaos (docs/RESILIENCE.md): PLAN is a chaos
//                          plan file, or inline directives when no such
//                          file exists; infrastructure faults are injected
//                          deterministically into the wire, worker, and
//                          journal layers of this run
//     --chaos-seed=N       salt for the chaos schedule (default 1)
//   In campaign mode --metrics writes the merged per-seed metrics (byte-
//   identical for any --jobs and --workers); --vcd and --trace are
//   single-run only, --workers/--trace-dir/--journal/--chaos campaign-only.
//
// Exit code: 0 when no property is violated, 1 on violation (in campaign
// mode: any violated or errored seed), 2 on usage or input errors, 3 when
// the verification run itself fails at runtime (simulation or interpreter
// error escaping the configured run) or a --campaign-timeout deadline
// aborts the campaign.
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "chaos/chaos.hpp"
#include "journal/journal.hpp"
#include "cpu/codegen.hpp"
#include "dist/broker.hpp"
#include "cpu/cpu.hpp"
#include "esw/esw_model.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "minic/sema.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/vcd.hpp"
#include "spec/specfile.hpp"
#include "stimulus/random_inputs.hpp"

namespace {

using namespace esv;
namespace sctc = esv::sctc;

struct Options {
  std::string program_path;
  std::string spec_path;
  int approach = 2;
  std::uint64_t max_steps = 1'000'000;
  std::uint64_t seed = 1;
  sctc::MonitorMode mode = campaign::CampaignConfig{}.mode;
  std::string vcd_path;
  std::size_t witness = 0;
  bool quiet = false;
  std::string faults_path;
  std::string metrics_path;
  std::string trace_path;
  // Campaign mode.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> campaign;
  unsigned jobs = 1;
  bool jobs_given = false;
  unsigned workers = 0;  // 0 = in-process campaign
  std::string report_path;
  bool report_timing = true;
  bool report_timing_given = false;
  std::string trace_dir;
  double seed_timeout = 0.0;
  bool seed_timeout_given = false;
  unsigned seed_retries = 0;
  bool seed_retries_given = false;
  std::uint64_t seed_mem_limit = 0;  // MiB, 0 = off
  std::string journal_path;
  journal::SyncPolicy journal_sync = journal::SyncPolicy::kBatch;
  bool journal_sync_given = false;
  bool resume = false;
  double campaign_timeout = 0.0;
  std::string chaos_spec;  // file path or inline plan text
  std::uint64_t chaos_seed = 1;
  bool chaos_seed_given = false;
};

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix,
                              std::string& out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      out = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    std::uint64_t number = 0;
    if (value_of("--approach=", value)) {
      if (!parse_u64(value, number) || (number != 1 && number != 2)) {
        error = "--approach must be 1 or 2";
        return false;
      }
      options.approach = static_cast<int>(number);
    } else if (value_of("--max-steps=", value)) {
      if (!parse_u64(value, number)) {
        error = "--max-steps must be an integer";
        return false;
      }
      options.max_steps = number;
    } else if (value_of("--seed=", value)) {
      if (!parse_u64(value, number)) {
        error = "--seed must be an integer";
        return false;
      }
      options.seed = number;
    } else if (value_of("--mode=", value)) {
      if (value == "progression") {
        options.mode = sctc::MonitorMode::kProgression;
      } else if (value == "automaton") {
        options.mode = sctc::MonitorMode::kSynthesizedAutomaton;
      } else {
        error = "--mode must be progression or automaton";
        return false;
      }
    } else if (value_of("--monitor-mode=", value)) {
      if (const auto mode = sctc::parse_monitor_mode(value)) {
        options.mode = *mode;
      } else {
        error =
            "--monitor-mode must be interpreted (progression), automaton, "
            "compiled, or both";
        return false;
      }
    } else if (value_of("--campaign=", value)) {
      const std::size_t dots = value.find("..");
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      if (dots == std::string::npos || !parse_u64(value.substr(0, dots), lo) ||
          !parse_u64(value.substr(dots + 2), hi)) {
        error = "--campaign expects a seed range LO..HI";
        return false;
      }
      if (hi < lo) {
        error = "--campaign: empty seed range (HI < LO)";
        return false;
      }
      options.campaign = {lo, hi};
    } else if (value_of("--jobs=", value)) {
      std::uint64_t jobs = 0;
      if (!parse_u64(value, jobs) || jobs == 0) {
        error = "--jobs must be a positive integer";
        return false;
      }
      options.jobs = static_cast<unsigned>(jobs);
      options.jobs_given = true;
    } else if (value_of("--workers=", value)) {
      std::uint64_t workers = 0;
      if (!parse_u64(value, workers) || workers == 0) {
        error = "--workers must be a positive integer";
        return false;
      }
      options.workers = static_cast<unsigned>(workers);
    } else if (value_of("--trace-dir=", value)) {
      options.trace_dir = value;
    } else if (value_of("--report=", value)) {
      options.report_path = value;
    } else if (value_of("--report-timing=", value)) {
      if (value == "on") {
        options.report_timing = true;
      } else if (value == "off") {
        options.report_timing = false;
      } else {
        error = "--report-timing must be on or off";
        return false;
      }
      options.report_timing_given = true;
    } else if (value_of("--journal=", value)) {
      if (value.empty()) {
        error = "--journal expects a file path";
        return false;
      }
      options.journal_path = value;
    } else if (value_of("--journal-sync=", value)) {
      if (value == "record") {
        options.journal_sync = journal::SyncPolicy::kRecord;
      } else if (value == "batch") {
        options.journal_sync = journal::SyncPolicy::kBatch;
      } else if (value == "none") {
        options.journal_sync = journal::SyncPolicy::kNone;
      } else {
        error = "--journal-sync must be record, batch, or none";
        return false;
      }
      options.journal_sync_given = true;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (value_of("--campaign-timeout=", value)) {
      char* end = nullptr;
      const double seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() ||
          !(seconds >= 0.0)) {
        error = "--campaign-timeout must be a non-negative number of seconds";
        return false;
      }
      options.campaign_timeout = seconds;
    } else if (value_of("--chaos=", value)) {
      if (value.empty()) {
        error = "--chaos expects a plan file or inline directives";
        return false;
      }
      options.chaos_spec = value;
    } else if (value_of("--chaos-seed=", value)) {
      if (!parse_u64(value, number)) {
        error = "--chaos-seed must be an integer";
        return false;
      }
      options.chaos_seed = number;
      options.chaos_seed_given = true;
    } else if (value_of("--seed-mem-limit=", value)) {
      if (!parse_u64(value, number) || number == 0) {
        error = "--seed-mem-limit must be a positive number of MiB";
        return false;
      }
      options.seed_mem_limit = number;
    } else if (value_of("--faults=", value)) {
      options.faults_path = value;
    } else if (value_of("--seed-timeout=", value)) {
      char* end = nullptr;
      const double seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() ||
          !(seconds >= 0.0)) {
        error = "--seed-timeout must be a non-negative number of seconds";
        return false;
      }
      options.seed_timeout = seconds;
      options.seed_timeout_given = true;
    } else if (value_of("--seed-retries=", value)) {
      if (!parse_u64(value, number)) {
        error = "--seed-retries must be an integer";
        return false;
      }
      options.seed_retries = static_cast<unsigned>(number);
      options.seed_retries_given = true;
    } else if (value_of("--vcd=", value)) {
      options.vcd_path = value;
    } else if (value_of("--metrics=", value)) {
      options.metrics_path = value;
    } else if (value_of("--trace=", value)) {
      options.trace_path = value;
    } else if (value_of("--witness=", value)) {
      if (!parse_u64(value, number)) {
        error = "--witness must be an integer";
        return false;
      }
      options.witness = static_cast<std::size_t>(number);
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      error = "unknown option " + arg;
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    error = "usage: esv-verify <program.c> <spec.esv> [options]";
    return false;
  }
  if (options.campaign && !options.vcd_path.empty()) {
    error = "--vcd is not available in campaign mode";
    return false;
  }
  if (options.campaign && !options.trace_path.empty()) {
    error = "--trace is not available in campaign mode";
    return false;
  }
  if (!options.campaign && !options.trace_dir.empty()) {
    error = "--trace-dir is only available in campaign mode";
    return false;
  }
  // Every campaign-only flag rejects non-campaign use by name, so a typo'd
  // invocation fails loudly (exit 2) instead of silently ignoring the flag.
  if (!options.campaign && options.jobs_given) {
    error = "--jobs is only available in campaign mode";
    return false;
  }
  if (!options.campaign && !options.report_path.empty()) {
    error = "--report is only available in campaign mode";
    return false;
  }
  if (!options.campaign && options.report_timing_given) {
    error = "--report-timing is only available in campaign mode";
    return false;
  }
  if (!options.campaign && options.seed_timeout_given) {
    error = "--seed-timeout is only available in campaign mode";
    return false;
  }
  if (!options.campaign && options.seed_retries_given) {
    error = "--seed-retries is only available in campaign mode";
    return false;
  }
  if (!options.campaign && options.workers != 0) {
    error = "--workers is only available in campaign mode";
    return false;
  }
  if (!options.campaign && !options.journal_path.empty()) {
    error = "--journal is only available in campaign mode";
    return false;
  }
  if (options.journal_path.empty() && options.resume) {
    error = "--resume requires --journal";
    return false;
  }
  if (options.journal_path.empty() && options.journal_sync_given) {
    error = "--journal-sync requires --journal";
    return false;
  }
  if (options.seed_mem_limit != 0 && options.workers == 0) {
    error =
        "--seed-mem-limit requires --workers (the ceiling is enforced per "
        "worker shard)";
    return false;
  }
  if (!options.campaign && options.campaign_timeout != 0.0) {
    error = "--campaign-timeout is only available in campaign mode";
    return false;
  }
  if (!options.campaign && !options.chaos_spec.empty()) {
    error = "--chaos is only available in campaign mode";
    return false;
  }
  if (options.chaos_spec.empty() && options.chaos_seed_given) {
    error = "--chaos-seed requires --chaos";
    return false;
  }
  options.program_path = positional[0];
  options.spec_path = positional[1];
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << error << "\n";
    return 2;
  }

  try {
    const std::string source = read_file(options.program_path);

    if (options.campaign) {
      campaign::CampaignConfig config;
      config.program_source = source;
      config.spec_text = read_file(options.spec_path);
      config.approach = options.approach;
      config.mode = options.mode;
      config.max_steps = options.max_steps;
      config.seed_lo = options.campaign->first;
      config.seed_hi = options.campaign->second;
      config.jobs = options.jobs;
      config.witness_depth = options.witness;
      if (!options.faults_path.empty()) {
        config.fault_plan_text = read_file(options.faults_path);
      }
      config.seed_timeout_seconds = options.seed_timeout;
      config.seed_retries = options.seed_retries;
      config.seed_mem_limit_mb = options.seed_mem_limit;
      config.campaign_timeout_seconds = options.campaign_timeout;
      config.trace_dir = options.trace_dir;
      config.workers = options.workers;
      // --report always carries the metrics block, so a report request is
      // enough to turn collection on.
      config.collect_metrics =
          !options.metrics_path.empty() || !options.report_path.empty();

      // Self-chaos (docs/RESILIENCE.md). --chaos=PLAN names a plan file, or
      // carries inline directives when no such file exists. Parse errors are
      // configuration errors (exit 2). The orchestrator-side engine installs
      // before the journal opens so the journal fault points cover the
      // header write too; worker processes get their own engines through the
      // environment the broker forwards.
      std::string chaos_text;
      if (!options.chaos_spec.empty()) {
        std::ifstream chaos_in(options.chaos_spec);
        if (chaos_in) {
          std::ostringstream buffer;
          buffer << chaos_in.rdbuf();
          chaos_text = buffer.str();
        } else {
          chaos_text = options.chaos_spec;
        }
      }
      std::unique_ptr<chaos::ChaosEngine> chaos_engine;
      obs::MetricsRegistry chaos_metrics;
      obs::TraceWriter chaos_events;
      if (!chaos_text.empty()) {
        chaos::ChaosPlan chaos_plan = chaos::parse_plan(chaos_text);
        chaos_engine = std::make_unique<chaos::ChaosEngine>(
            std::move(chaos_plan), options.chaos_seed, chaos::Role::kBroker);
        chaos_engine->set_metrics(&chaos_metrics);
        chaos_engine->set_trace(&chaos_events);
        chaos::ChaosEngine::install(chaos_engine.get());
      }

      // Preflight the metrics sink so an unwritable path is a configuration
      // error (exit 2) before any seed runs.
      std::ofstream metrics_out;
      if (!options.metrics_path.empty()) {
        metrics_out.open(options.metrics_path);
        if (!metrics_out) {
          throw std::runtime_error("cannot write " + options.metrics_path);
        }
      }

      // Write-ahead journal (docs/JOURNAL.md): every finished seed is
      // appended before the campaign acknowledges it, so a killed run
      // resumes from the journal instead of starting over.
      std::unique_ptr<journal::JournalWriter> journal_writer;
      std::mutex journal_error_mutex;
      std::string journal_error;
      if (!options.journal_path.empty()) {
        if (options.resume) {
          const journal::RecoveredJournal recovered =
              journal::recover(options.journal_path);
          if (recovered.header_version != 0 &&
              recovered.header_version != journal::kJournalVersion) {
            // Refuse before the resume writer opens (and truncates) the
            // file: the old journal is the user's data, not ours to clear.
            throw std::runtime_error(
                "--resume: journal " + options.journal_path +
                " was written by an older esv version (journal format v" +
                std::to_string(recovered.header_version) +
                ", this build writes v" +
                std::to_string(journal::kJournalVersion) +
                "; the config-digest algorithm changed) — re-run without "
                "--resume to start a fresh journal");
          }
          if (recovered.header_valid &&
              recovered.config_digest != journal::config_digest(config)) {
            // Splicing results from a different configuration would produce
            // a report that no single campaign ever computed.
            throw std::runtime_error(
                "--resume: journal " + options.journal_path +
                " was written by a different campaign configuration "
                "(journal digest " +
                recovered.config_digest + ", this campaign " +
                journal::config_digest(config) + ")");
          }
          config.resume_results = recovered.results;
          if (!options.quiet) {
            std::cout << "journal: resumed " << recovered.results.size()
                      << " of " << (config.seed_hi - config.seed_lo + 1)
                      << " seeds from " << options.journal_path;
            if (recovered.tail_dropped) std::cout << " (corrupt tail dropped)";
            std::cout << "\n";
          }
          journal_writer = std::make_unique<journal::JournalWriter>(
              options.journal_path, config, options.journal_sync,
              recovered.header_valid ? recovered.valid_bytes : 0);
        } else {
          journal_writer = std::make_unique<journal::JournalWriter>(
              options.journal_path, config, options.journal_sync);
        }
        // Workers call this concurrently (the writer serializes) and must
        // not see an exception; the first failure is surfaced after the run.
        config.on_result = [&](const campaign::SeedResult& result) {
          try {
            journal_writer->append(result);
          } catch (const journal::JournalError& e) {
            std::lock_guard<std::mutex> lock(journal_error_mutex);
            if (journal_error.empty()) journal_error = e.what();
          }
        };
      }

      dist::BrokerOptions broker_options;
      broker_options.chaos_plan_text = chaos_text;
      broker_options.chaos_seed = options.chaos_seed;
      campaign::CampaignReport report =
          options.workers != 0 ? dist::run_distributed(config, broker_options)
                               : campaign::run(config);
      if (journal_writer) journal_writer->close();
      if (chaos_engine) {
        chaos::ChaosEngine::install(nullptr);
        report.chaos_metrics = chaos_metrics.snapshot();
        report.chaos_events_jsonl = chaos_events.text();
      }
      if (!journal_error.empty()) {
        // The campaign finished, but its durability promise did not: treat a
        // failed journal like any other unwritable output (exit 2). Chaos
        // journal faults surface here too — a deterministic structured
        // abort, never silent data loss.
        throw std::runtime_error(journal_error);
      }
      std::cout << (options.quiet ? report.summary() : report.verdict_table());
      if (!options.report_path.empty()) {
        std::ofstream out(options.report_path);
        if (!out) {
          throw std::runtime_error("cannot write " + options.report_path);
        }
        out << report.to_json(options.report_timing);
        if (!options.quiet) {
          std::cout << "report: " << options.report_path << "\n";
        }
      }
      if (!options.metrics_path.empty()) {
        // Deterministic rendering: the merged campaign snapshot carries no
        // timing histograms, so the file is byte-identical for any --jobs.
        metrics_out << report.metrics.to_json(/*include_timing=*/false);
        if (!options.quiet) {
          std::cout << "metrics: " << options.metrics_path << "\n";
        }
      }
      if (!options.quiet) {
        std::ostringstream timing;
        timing << std::fixed << std::setprecision(2);
        timing << "wall " << report.wall_seconds << " s, "
               << report.seeds_per_second() << " seeds/sec (";
        if (report.distributed) {
          timing << report.workers
                 << (report.workers == 1 ? " proc x " : " procs x ")
                 << report.jobs
                 << (report.jobs == 1 ? " thread)" : " threads)");
        } else {
          timing << report.jobs
                 << (report.jobs == 1 ? " worker)" : " workers)");
        }
        timing << "\n";
        std::cout << timing.str();
        if (report.degraded) {
          std::cout << "warning: campaign degraded to in-process execution "
                       "(every worker exhausted its respawn budget)\n";
        }
      }
      if (report.deadline_exceeded) {
        // Structured abort: the partial report and journal were written
        // above; the exit code tells the caller the deadline cut the run.
        std::cerr << "campaign aborted: wall-clock deadline exceeded "
                     "(--campaign-timeout)\n";
        return 3;
      }
      return (report.any_violated() || report.error_seeds != 0) ? 1 : 0;
    }

    const spec::SpecFile specfile =
        spec::parse_spec(read_file(options.spec_path));

    minic::Program program = minic::compile(source);
    mem::AddressSpace memory(
        (program.data_segment_end() + 0xFFFu) & ~0xFFFu);

    stimulus::RandomInputProvider inputs(options.seed);
    for (const auto& input : specfile.inputs) {
      if (input.is_chance) {
        inputs.set_chance(input.name,
                          static_cast<std::uint32_t>(input.lo),
                          static_cast<std::uint32_t>(input.hi));
      } else {
        inputs.set_range(input.name, input.lo, input.hi);
      }
    }

    sim::Simulation sim;
    sctc::TemporalChecker checker(sim, "sctc", options.mode);
    spec::apply_spec(specfile, program, memory, checker);
    if (options.witness != 0) checker.set_witness_depth(options.witness);
    checker.set_stop_on_violation(true);

    // Fault plan (still configuration: parse and resolution errors exit 2).
    fault::FaultPlan plan;
    if (!options.faults_path.empty()) {
      plan = fault::parse_plan(read_file(options.faults_path));
    }
    for (const auto& fault_line : specfile.fault_lines) {
      plan.entries.push_back(
          fault::parse_fault_line(fault_line.text, fault_line.line));
    }
    plan.resolve([&program](const std::string& name, std::uint32_t& address) {
      const minic::GlobalVar* global = program.find_global(name);
      if (global == nullptr || global->is_array) return false;
      address = global->address;
      return true;
    });
    std::optional<fault::FaultEngine> faults;
    if (!plan.empty()) {
      faults.emplace(plan, options.seed);
      faults->bind_memory(memory);
    }

    // Observability sinks (docs/OBSERVABILITY.md). Output files are opened
    // up front so an unwritable path is a configuration error (exit 2), not
    // a lost run.
    const bool want_metrics = !options.metrics_path.empty();
    const bool want_trace = !options.trace_path.empty();
    std::ofstream metrics_out;
    std::ofstream trace_out;
    if (want_metrics) {
      metrics_out.open(options.metrics_path);
      if (!metrics_out) {
        throw std::runtime_error("cannot write " + options.metrics_path);
      }
    }
    if (want_trace) {
      trace_out.open(options.trace_path);
      if (!trace_out) {
        throw std::runtime_error("cannot write " + options.trace_path);
      }
    }
    obs::MetricsRegistry metrics;
    obs::TraceWriter trace;
    if (want_metrics) {
      sim.set_metrics(&metrics);
      checker.set_metrics(&metrics);
      if (faults) faults->set_metrics(&metrics);
    }
    if (want_trace) {
      trace.seed_start(options.seed);
      checker.set_trace(&trace);
      if (faults) faults->set_trace(&trace);
    }

    sim::VcdTracer vcd(sim);
    const bool want_vcd = !options.vcd_path.empty();
    if (want_vcd) {
      std::set<std::string> traced;
      for (const auto& prop : specfile.propositions) {
        if (!traced.insert(prop.global).second) continue;
        const std::uint32_t address =
            program.find_global(prop.global)->address;
        vcd.add_u32(prop.global,
                    [&memory, address] { return memory.sctc_read_uint(address); });
      }
    }

    // From here on errors are runtime verification failures, not
    // configuration mistakes: a kernel spawn rejection, an interpreter
    // fault, or a trap escaping the run exits 3 with a one-line diagnostic.
    std::uint64_t executed = 0;
    const auto run_started = std::chrono::steady_clock::now();
    try {
      if (options.approach == 2) {
        esw::EswProgram lowered = esw::lower_program(program);
        esw::EswModel model(sim, "esw", program, lowered, memory, inputs);
        checker.bind_trigger(model.pc_event());
        if (want_vcd) vcd.sample_on(model.pc_event());
        sim.create_method(
            "supervisor",
            [&] {
              if (faults) faults->on_step(checker.steps());
              if (model.finished() || checker.all_decided() ||
                  model.interpreter().steps_executed() >= options.max_steps) {
                sim.stop();
              }
            },
            {&model.pc_event()}, /*run_at_start=*/false);
        sim.run();
        executed = model.interpreter().steps_executed();
      } else {
        cpu::CodeImage image = cpu::compile_to_image(program);
        sim::Clock clock(sim, "clk", sim::Time::ns(10));
        cpu::Cpu core(sim, "cpu", image, memory, inputs, clock);
        core.set_stop_on_halt(true);
        if (faults) faults->bind_clock(clock);
        checker.bind_trigger(clock.posedge_event());
        if (want_vcd) vcd.sample_on(clock.posedge_event());
        sim.create_method(
            "supervisor",
            [&] {
              if (faults) faults->on_step(checker.steps());
              if (checker.all_decided() ||
                  clock.cycles() >= options.max_steps) {
                sim.stop();
              }
            },
            {&clock.posedge_event()}, /*run_at_start=*/false);
        sim.run();
        executed = clock.cycles();
        if (core.trapped() && !options.quiet) {
          std::cout << "CPU trapped: " << core.trap_message() << "\n";
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "runtime error: " << e.what() << "\n";
      return 3;
    }

    if (want_vcd) {
      std::ofstream(options.vcd_path) << vcd.str();
      if (!options.quiet) {
        std::cout << "waveform: " << options.vcd_path << " ("
                  << vcd.samples() << " samples)\n";
      }
    }
    if (want_metrics) {
      metrics.counter("stimulus.draws").add(inputs.draw_count());
      metrics
          .counter(options.approach == 2 ? "esw.statements" : "cpu.cycles")
          .add(executed);
      metrics.duration_histogram("run.wall_us")
          .record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - run_started)
                  .count()));
      metrics_out << metrics.snapshot().to_json(/*include_timing=*/true);
      if (!options.quiet) {
        std::cout << "metrics: " << options.metrics_path << "\n";
      }
    }
    if (want_trace) {
      std::uint64_t validated = 0;
      std::uint64_t violated = 0;
      std::uint64_t pending = 0;
      for (const sctc::PropertyRecord& record : checker.properties()) {
        switch (record.verdict()) {
          case temporal::Verdict::kValidated: ++validated; break;
          case temporal::Verdict::kViolated: ++violated; break;
          case temporal::Verdict::kPending: ++pending; break;
        }
      }
      trace.seed_end(options.seed, checker.steps(), validated, violated,
                     pending);
      trace_out << trace.text();
      if (!options.quiet) {
        std::cout << "trace: " << options.trace_path << " ("
                  << trace.event_count() << " events)\n";
      }
    }
    if (faults) {
      std::cout << "faults injected: " << faults->injected_count() << "\n";
      if (!options.quiet && faults->injected_count() != 0) {
        std::cout << faults->log_text();
      }
    }
    std::cout << checker.report();
    if (checker.any_violated() && options.witness != 0) {
      std::cout << "witness (last " << options.witness << " steps):\n"
                << checker.witness_table();
    }
    if (checker.divergence_count() != 0) {
      // A compiled-vs-interpreted divergence is a defect of the verifier
      // itself, never a property result: same exit code as a runtime error.
      std::cerr << "monitor error: " << checker.divergence_count()
                << " compiled monitor(s) diverged from the interpreted "
                   "oracle (--monitor-mode=both)\n";
      return 3;
    }
    return checker.any_violated() ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
