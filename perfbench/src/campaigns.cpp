// The three campaign workloads (derived, timebound, microprocessor).
//
// Untraced run: rounds of campaign::run, one call per study over a window of
// the seed pool, until the time budget is spent. Every seed is checked
// against expected.tsv.
//
// Traced run: a reference phase of untraced campaign::run calls (jobs=1),
// then a replay of exactly those campaigns that rebuilds each seed's stack
// from the layers' public pieces and wraps a span around every call into a
// layer. The replay must reproduce campaign::run's per-seed verdicts, steps
// and statements; any difference voids the run.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <optional>

#include "campaign/seed_runner.hpp"
#include "common.hpp"
#include "cpu/codegen.hpp"
#include "cpu/cpu.hpp"
#include "esw/esw_model.hpp"
#include "esw/interpreter.hpp"
#include "mem/address_space.hpp"
#include "minic/sema.hpp"
#include "sim/clock.hpp"
#include "spec/specfile.hpp"
#include "stimulus/random_inputs.hpp"

namespace perfbench {

namespace campaign = esv::campaign;

namespace {

constexpr unsigned kJobs = 2;
/// Set-up is sampled between rounds all through the run, so that it sees
/// the same host speed as the rounds do: before each round, samples are
/// taken until set-up has used kSetupShare of the elapsed time. The
/// interquartile mean of at least kMinSetupReps samples is reported. The
/// samples are bimodal on a shared host (fast and ~1.5x slower stretches),
/// and a median jumps between the modes where this mean moves smoothly.
constexpr double kSetupShare = 0.2;
constexpr std::size_t kMinSetupReps = 7;

/// First seed of the window a study runs in round `round`. The workload
/// seed picks the starting offset into the pool.
std::uint64_t window_lo(std::uint64_t workload_seed, std::uint64_t round,
                        std::size_t study, std::uint64_t width) {
  const std::uint64_t slots = kSeedPool - width + 1;
  const std::uint64_t base = (workload_seed * 7919 + study * 97) % slots;
  return 1 + (base + round * width) % slots;
}

/// prepare_campaign plus one worker stack build per study, as campaign::run
/// pays them before its first seed; returns seconds.
double setup_once(const CampaignKind& kind, const std::vector<Study>& studies) {
  const auto started = Clock::now();
  for (const Study& study : studies) {
    const campaign::CampaignConfig config =
        make_config(kind, study, 1, kind.seeds_per_study, kJobs);
    const campaign::CampaignSetup setup = campaign::prepare_campaign(config);
    campaign::SeedRunner runner(config, setup);
  }
  return seconds_between(started, Clock::now());
}

void check_report(const ExpectedTable& table, const CampaignKind& kind,
                  const Study& study, const campaign::CampaignReport& report,
                  RunResult& result) {
  for (const campaign::SeedResult& seed : report.seeds) {
    ++result.attempted;
    const std::string mismatch = check_seed(table, kind.name, study.name, seed);
    if (!mismatch.empty()) {
      ++result.failed;
      result.fail(mismatch);
    }
  }
}

RunResult run_untraced(const RunOptions& options, const CampaignKind& kind,
                       const std::vector<Study>& studies,
                       const ExpectedTable& table) {
  RunResult result;
  const std::uint64_t width = kind.seeds_per_study;

  std::vector<double> round_ms, setup_reps;
  double setup_spent = 0.0;
  std::uint64_t seeds = 0;
  const auto run_start = Clock::now();
  const auto deadline =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(options.seconds));
  setup_once(kind, studies);  // warm-up
  // Round 0 is a warm-up: checked, not timed.
  for (std::uint64_t round = 0; round == 0 || Clock::now() < deadline;
       ++round) {
    while (round > 0 &&
           setup_spent <
               kSetupShare * seconds_between(run_start, Clock::now())) {
      setup_reps.push_back(setup_once(kind, studies));
      setup_spent += setup_reps.back();
    }
    double this_round = 0.0;
    for (std::size_t i = 0; i < studies.size(); ++i) {
      const std::uint64_t lo = window_lo(options.seed, round, i, width);
      const campaign::CampaignConfig config =
          make_config(kind, studies[i], lo, lo + width - 1, kJobs);
      const auto started = Clock::now();
      const campaign::CampaignReport report = campaign::run(config);
      this_round += seconds_between(started, Clock::now());
      check_report(table, kind, studies[i], report, result);
    }
    if (round == 0) continue;
    round_ms.push_back(this_round * 1e3);
    seeds += width * studies.size();
  }
  while (setup_reps.size() < kMinSetupReps) {
    setup_reps.push_back(setup_once(kind, studies));
  }

  std::cout << "  rounds=" << round_ms.size() << " seeds=" << seeds
            << " (" << width << " per study per round, jobs=" << kJobs
            << "); round ms p10/p50/p90 " << quantile(round_ms, 0.1) << " "
            << quantile(round_ms, 0.5) << " " << quantile(round_ms, 0.9)
            << "; set-up samples=" << setup_reps.size() << "\n";
  result.metrics = {
      {"seeds_per_s",
       static_cast<double>(width * studies.size()) /
           (interquartile_mean(round_ms) / 1e3),
       "seeds/s"},
      {"setup_s", interquartile_mean(setup_reps), "s"},
      {"peak_rss_mb", self_peak_rss_mb(), "MiB"},
      {"p50_ms", quantile(round_ms, 0.5), "ms"},
  };
  return result;
}

// --- traced replay -----------------------------------------------------------

std::uint32_t memory_bytes(const esv::minic::Program& program) {
  return (program.data_segment_end() + 0xFFFu) & ~0xFFFu;
}

void configure_inputs(const esv::spec::SpecFile& specfile,
                      esv::stimulus::RandomInputProvider& inputs) {
  for (const auto& input : specfile.inputs) {
    if (input.is_chance) {
      inputs.set_chance(input.name, static_cast<std::uint32_t>(input.lo),
                        static_cast<std::uint32_t>(input.hi));
    } else {
      inputs.set_range(input.name, input.lo, input.hi);
    }
  }
}

/// Per-seed results and counts of the replay; its times are in the spans.
struct ReplaySeed {
  std::uint64_t seed = 0;
  std::string verdicts;
  std::uint64_t steps = 0;
  std::uint64_t statements = 0;
  std::string error;
  std::uint64_t ar_states = 0;
  std::uint64_t delta_cycles = 0;
  std::uint64_t process_runs = 0;
};

/// Worker stack of the replay: the same three front-end calls SeedRunner
/// makes, each under its own span.
struct ReplayStack {
  esv::minic::Program program;
  std::optional<esv::esw::EswProgram> lowered;
  std::optional<esv::cpu::CodeImage> image;
};

ReplayStack build_stack(const campaign::CampaignConfig& config,
                        SpanRecorder& spans, std::int32_t parent,
                        std::uint64_t group) {
  ReplayStack stack;
  std::int32_t span = spans.open("minic.compile", parent, group);
  stack.program = esv::minic::compile(config.program_source);
  spans.close(span);
  if (config.approach == 2) {
    span = spans.open("esw.lower", parent, group);
    stack.lowered = esv::esw::lower_program(stack.program);
  } else {
    span = spans.open("cpu.codegen", parent, group);
    stack.image = esv::cpu::compile_to_image(stack.program);
  }
  spans.close(span);
  return stack;
}

ReplaySeed replay_seed(const campaign::CampaignConfig& config,
                       const esv::spec::SpecFile& specfile,
                       const ReplayStack& stack, std::uint64_t seed,
                       SpanRecorder& spans, std::int32_t parent,
                       std::uint64_t group) {
  ReplaySeed out;
  out.seed = seed;
  const std::int32_t seed_span = spans.open("campaign.seed", parent, group);

  esv::mem::AddressSpace memory(memory_bytes(stack.program));
  esv::stimulus::RandomInputProvider inputs(seed);
  configure_inputs(specfile, inputs);
  esv::sim::Simulation sim;
  esv::sctc::TemporalChecker checker(sim, "sctc", config.mode);

  const std::int32_t apply_span = spans.open("spec.apply", seed_span, group);
  esv::spec::apply_spec(specfile, stack.program, memory, checker);
  spans.close(apply_span);
  checker.set_stop_on_violation(true);
  for (const esv::sctc::PropertyRecord& record : checker.properties()) {
    out.ar_states += record.automaton_states;
  }

  // The trigger process is what bind_trigger creates, with a timer around
  // step_all. Registered first, like the campaign runner's.
  std::uint64_t step_calls = 0;
  std::int64_t step_ns = 0;
  const auto timed_step = [&] {
    const auto started = Clock::now();
    checker.step_all();
    step_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - started)
                   .count();
    ++step_calls;
  };

  std::int32_t run_span = SpanRecorder::kNoParent;
  try {
    if (config.approach == 2) {
      esv::esw::EswModel model(sim, "esw", stack.program, *stack.lowered,
                               memory, inputs);
      sim.create_method("sctc_trigger", timed_step, {&model.pc_event()},
                        /*run_at_start=*/false);
      sim.create_method(
          "supervisor",
          [&] {
            if (model.finished() || checker.all_decided() ||
                model.interpreter().steps_executed() >= config.max_steps) {
              sim.stop();
            }
          },
          {&model.pc_event()}, /*run_at_start=*/false);
      run_span = spans.open("sim.run", seed_span, group);
      sim.run();
      spans.close(run_span);
      out.statements = model.interpreter().steps_executed();
    } else {
      esv::sim::Clock clock(sim, "clk", esv::sim::Time::ns(10));
      esv::cpu::Cpu core(sim, "cpu", *stack.image, memory, inputs, clock);
      core.set_stop_on_halt(true);
      sim.create_method("sctc_trigger", timed_step, {&clock.posedge_event()},
                        /*run_at_start=*/false);
      sim.create_method(
          "supervisor",
          [&] {
            if (checker.all_decided() || clock.cycles() >= config.max_steps) {
              sim.stop();
            }
          },
          {&clock.posedge_event()}, /*run_at_start=*/false);
      run_span = spans.open("sim.run", seed_span, group);
      sim.run();
      spans.close(run_span);
      out.statements = clock.cycles();
      if (core.trapped()) out.error = "CPU trapped: " + core.trap_message();
    }
  } catch (const std::exception& e) {
    if (run_span != SpanRecorder::kNoParent) spans.close(run_span);
    out.error = e.what();
  }
  spans.add_folded("sctc.step_all", run_span, group, step_calls, step_ns);

  for (const esv::sctc::PropertyRecord& record : checker.properties()) {
    switch (record.verdict()) {
      case esv::temporal::Verdict::kValidated: out.verdicts += 'V'; break;
      case esv::temporal::Verdict::kViolated: out.verdicts += 'X'; break;
      case esv::temporal::Verdict::kPending: out.verdicts += 'P'; break;
    }
  }
  out.steps = checker.steps();
  out.delta_cycles = sim.delta_count();
  out.process_runs = sim.process_runs();
  spans.close(seed_span);

  if (config.approach == 2 && out.error.empty()) {
    // The interpreter alone, on the same seed and inputs, for exactly the
    // statements the simulated run executed. Measurement only: a root span
    // outside the seed's, so it does not count toward the seed's time.
    esv::mem::AddressSpace replay_memory(memory_bytes(stack.program));
    esv::stimulus::RandomInputProvider replay_inputs(seed);
    configure_inputs(specfile, replay_inputs);
    esv::esw::Interpreter interpreter(stack.program, *stack.lowered,
                                      replay_memory, replay_inputs);
    const std::int32_t span =
        spans.open("esw.interpreter_replay", SpanRecorder::kNoParent, group);
    interpreter.run(out.statements);
    spans.close(span);
    if (interpreter.steps_executed() != out.statements) {
      out.error = "interpreter replay executed " +
                  std::to_string(interpreter.steps_executed()) + " of " +
                  std::to_string(out.statements) + " statements";
    }
  }
  return out;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

RunResult run_traced(const RunOptions& options, const CampaignKind& kind,
                     const std::vector<Study>& studies,
                     const ExpectedTable& table) {
  RunResult result;
  const std::uint64_t width = kind.seeds_per_study;

  // Phase A: untraced reference campaigns (jobs=1, so their wall time is
  // directly comparable with the single-threaded replay).
  struct Window {
    std::size_t study;
    campaign::CampaignConfig config;
    campaign::CampaignReport report;
  };
  std::vector<Window> windows;
  double reference_s = 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds * 0.4));
  // Round 0 is a warm-up for both phases: run, checked, not replayed.
  for (std::uint64_t round = 0; round <= 1 || Clock::now() < deadline;
       ++round) {
    for (std::size_t i = 0; i < studies.size(); ++i) {
      const std::uint64_t lo = window_lo(options.seed, round, i, width);
      Window window{i, make_config(kind, studies[i], lo, lo + width - 1, 1),
                    {}};
      if (round == 0) {
        check_report(table, kind, studies[i], campaign::run(window.config),
                     result);
        continue;
      }
      const auto started = Clock::now();
      window.report = campaign::run(window.config);
      reference_s += seconds_between(started, Clock::now());
      check_report(table, kind, studies[i], window.report, result);
      windows.push_back(std::move(window));
    }
  }

  // Phase B: the traced replay of the same campaigns.
  SpanRecorder spans;
  std::vector<ReplaySeed> replayed;
  std::int64_t traced_ns = 0;
  std::uint64_t mismatches = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Window& window = windows[w];
    const std::uint64_t group = static_cast<std::uint64_t>(w) << 20;
    const std::int32_t job = spans.open("campaign.job", SpanRecorder::kNoParent,
                                        group);
    std::int32_t span = spans.open("campaign.prepare", job, group);
    const campaign::CampaignSetup setup =
        campaign::prepare_campaign(window.config);
    spans.close(span);
    const ReplayStack stack = build_stack(window.config, spans, job, group);
    std::vector<ReplaySeed> seeds;
    for (std::uint64_t seed = window.config.seed_lo;
         seed <= window.config.seed_hi; ++seed) {
      seeds.push_back(replay_seed(window.config, setup.specfile, stack, seed,
                                  spans, job,
                                  group | (seed - window.config.seed_lo + 1)));
    }
    span = spans.open("campaign.report", job, group);
    campaign::CampaignReport report =
        campaign::make_report_skeleton(window.config, setup);
    for (std::size_t i = 0; i < report.seeds.size(); ++i) {
      report.seeds[i] = window.report.seeds[i];
    }
    campaign::finalize_report(window.config, setup, report);
    const std::string json = report.to_json(false);
    spans.close(span);
    spans.close(job);
    traced_ns +=
        spans.duration_ns(spans.spans()[static_cast<std::size_t>(job)]);
    if (json != window.report.to_json(false)) {
      ++mismatches;
      result.fail("replayed report of " + studies[window.study].name +
                  " differs from campaign::run's");
    }

    // Measurement only, outside the job span: the spec parse alone.
    span = spans.open("spec.parse", SpanRecorder::kNoParent, group);
    esv::spec::parse_spec(window.config.spec_text);
    spans.close(span);

    // Fidelity: every replayed seed must match campaign::run's.
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const campaign::SeedResult& ref = window.report.seeds[i];
      const ReplaySeed& got = seeds[i];
      if (!got.error.empty() || got.verdicts != verdict_letters(ref) ||
          got.steps != ref.steps || got.statements != ref.statements) {
        ++mismatches;
        result.fail("replay of " + studies[window.study].name + " seed " +
                    std::to_string(got.seed) + " differs from campaign::run" +
                    (got.error.empty() ? "" : ": " + got.error));
      }
      replayed.push_back(got);
    }
  }
  if (mismatches != 0) {
    result.failed += mismatches;
    std::cout << "  replay differs from campaign::run: per-layer numbers are "
                 "void\n";
  }

  // Per-name span statistics.
  const auto& all = spans.spans();
  std::map<std::string, std::vector<double>> ms_by_name;
  for (const auto& span : all) {
    ms_by_name[spans.name(span.name)].push_back(spans.duration_ns(span) /
                                                1e6);
  }
  const double front_ms =
      mean(ms_by_name[kind.approach == 2 ? "esw.lower" : "cpu.codegen"]);

  // Self times, derived from the spans: a span's duration minus its
  // children's. Per seed, the kernel residual is sim.run's self time minus
  // the interpreter replay of the same seed (approach 1 has no replay: the
  // residual is CPU model plus kernel).
  const std::vector<std::int64_t> self = spans.self_times();
  std::map<std::string, double> self_ns;
  std::map<std::uint64_t, double> residual_by_seed;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& name = spans.name(all[i].name);
    self_ns[name] += static_cast<double>(self[i]);
    if (name == "sim.run") {
      residual_by_seed[all[i].group] += static_cast<double>(self[i]);
    } else if (name == "esw.interpreter_replay") {
      residual_by_seed[all[i].group] -= static_cast<double>(self[i]);
    }
  }
  std::uint64_t negative_residuals = 0;
  for (const auto& [group, residual] : residual_by_seed) {
    if (residual < 0) ++negative_residuals;
  }
  const double glue = self_ns["campaign.seed"];
  const double apply = self_ns["spec.apply"];
  const double step = self_ns["sctc.step_all"];
  const double interp = self_ns["esw.interpreter_replay"];
  const double residual = self_ns["sim.run"] - interp;
  const double seed_total = glue + apply + step + self_ns["sim.run"];

  double sum_steps = 0, sum_statements = 0, sum_delta = 0, sum_runs = 0,
         sum_ar = 0;
  for (const ReplaySeed& seed : replayed) {
    sum_steps += static_cast<double>(seed.steps);
    sum_statements += static_cast<double>(seed.statements);
    sum_delta += static_cast<double>(seed.delta_cycles);
    sum_runs += static_cast<double>(seed.process_runs);
    sum_ar += static_cast<double>(seed.ar_states);
  }
  const double n = std::max<double>(1.0, static_cast<double>(replayed.size()));
  const double steps = std::max(1.0, sum_steps);

  // Where a seed's traced time goes; the shares add up to 100%.
  std::cout << "  traced " << replayed.size() << " seeds in "
            << windows.size() << " campaigns; share of seed time:\n";
  const auto share = [&](const char* name, double ns) {
    std::cout << "    " << std::left << std::setw(22) << name << std::fixed
              << std::setprecision(1) << 100.0 * ns / seed_total << "%\n"
              << std::defaultfloat;
  };
  share("spec.apply", apply);
  share("sctc.step_all", step);
  if (kind.approach == 2) {
    share("esw.interpreter", interp);
    share("sim.kernel", residual);
  } else {
    share("cpu+sim.kernel", residual);
  }
  share("campaign.seed_glue", glue);
  std::cout << "  seeds with a negative residual: " << negative_residuals
            << "\n";
  if (residual < 0) result.fail("negative kernel residual over the run");

  spans.write_jsonl(options.work_dir + "/spans-" + kind.name + ".jsonl");

  result.metrics = {
      {"minic.compile_ms", mean(ms_by_name["minic.compile"]), "ms"},
      {"spec.parse_ms", mean(ms_by_name["spec.parse"]), "ms"},
      {"campaign.prepare_ms", mean(ms_by_name["campaign.prepare"]), "ms"},
      {"spec.apply_us", apply / n / 1e3, "us"},
      {"temporal.ar_states", sum_ar / n, "count"},
      {"sctc.step_ns", step / steps, "ns"},
      {"sctc.steps", sum_steps / n, "count/seed"},
      {"sim.delta_cycles", sum_delta / steps, "count/step"},
      {"sim.process_runs", sum_runs / steps, "count/step"},
      {"campaign.seed_glue_us", glue / n / 1e3, "us"},
      {"campaign.report_ms", mean(ms_by_name["campaign.report"]), "ms"},
      {"trace.overhead_pct",
       100.0 * (static_cast<double>(traced_ns) / 1e9 / reference_s - 1.0),
       "%"},
  };
  if (kind.approach == 2) {
    result.metrics.push_back({"esw.lower_ms", front_ms, "ms"});
    result.metrics.push_back(
        {"esw.stmt_ns", interp / std::max(1.0, sum_statements), "ns"});
    result.metrics.push_back({"sim.kernel_ns", residual / steps, "ns"});
  } else {
    result.metrics.push_back({"cpu.codegen_ms", front_ms, "ms"});
    result.metrics.push_back(
        {"cpu.cycle_ns", residual / std::max(1.0, sum_statements), "ns"});
  }
  return result;
}

}  // namespace

RunResult run_campaign_workload(const RunOptions& options) {
  const CampaignKind& kind = campaign_kind(options.workload);
  const std::vector<Study> studies = load_kind_studies(kind, options.data_dir);
  ExpectedTable table = ExpectedTable::load(options.expected_path);
  if (options.corrupt_expected) table.corrupt();
  return options.trace ? run_traced(options, kind, studies, table)
                       : run_untraced(options, kind, studies, table);
}

}  // namespace perfbench
