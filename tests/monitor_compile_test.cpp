// Compiled-monitor tests (docs/MONITORS.md): the flat-transition-table
// lowering must be observationally identical to the interpreted progression
// monitor and to the closure-based AutomatonMonitor it is lowered from —
// verdict for verdict, state for state, and obligation for obligation.
//
// Three layers are covered here:
//   - table-layout unit tests against a known small property,
//   - a differential fuzz suite over random FLTL formulas and traces
//     (same generator shape as temporal_semantics_fuzz_test, including
//     zero-bound windows and end-of-trace resolution at every position),
//   - checker-level `both` mode: a correct build never diverges, and a
//     deliberately corrupted compiled monitor is reported as a first-class
//     monitor error through divergences(), metrics, trace, and report().
//
// The allocation test at the bottom replaces the global operator new/delete
// with counting versions (this test binary only) to pin down the compiled
// mode's zero-allocation steady state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sctc/checker.hpp"
#include "temporal/automaton.hpp"
#include "temporal/compiled.hpp"
#include "temporal/monitor.hpp"
#include "temporal/parser.hpp"

// --- counting allocator ------------------------------------------------------
// Every path through the replaced operators must stay allocation-free itself;
// the counter is a relaxed atomic so the hooks work under TSan too.

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace esv::temporal {
namespace {

using Trace = std::vector<std::vector<bool>>;  // trace[i][prop]

PropWord word_of(const std::vector<bool>& step) {
  PropWord word = 0;
  for (std::size_t i = 0; i < step.size(); ++i) {
    if (step[i]) word |= PropWord{1} << i;
  }
  return word;
}

PropValuation valuation_of(const std::vector<bool>& step) {
  return [&step](int index) {
    return step[static_cast<std::size_t>(index)];
  };
}

// --- table layout ------------------------------------------------------------

TEST(CompiledTableTest, LayoutMatchesSourceAutomaton) {
  FormulaFactory factory;
  FormulaRef formula = parse_fltl("G (req -> F[2] ack)", factory);
  const ArAutomaton automaton = synthesize(factory, formula);

  CompiledTables tables;
  CompiledMonitor monitor = tables.compile(automaton, factory);

  EXPECT_TRUE(monitor.valid());
  EXPECT_EQ(tables.monitor_count(), 1u);
  // Dense rows: one entry per (state, assignment) pair, 2 propositions.
  EXPECT_EQ(automaton.assignment_count(), 4u);
  EXPECT_EQ(tables.table_entries(),
            automaton.state_count() * automaton.assignment_count());
  // State numbering is preserved exactly, including the initial state and
  // its obligation (the property formula itself — pointer-equal through the
  // hash-consing factory).
  EXPECT_EQ(monitor.state(), automaton.initial());
  EXPECT_EQ(monitor.obligation(), formula);
  EXPECT_EQ(monitor.verdict(), Verdict::kPending);
  EXPECT_EQ(monitor.steps(), 0u);
}

TEST(CompiledTableTest, StepWalksTheSameStatesAsAutomatonMonitor) {
  FormulaFactory factory;
  FormulaRef formula = parse_fltl("G (req -> F[2] ack)", factory);
  const ArAutomaton automaton = synthesize(factory, formula);

  CompiledTables tables;
  CompiledMonitor compiled = tables.compile(automaton, factory);
  AutomatonMonitor reference(automaton);

  // req fires, ack answers just inside the bound, then req fires again and
  // ack never comes: pending transitions followed by a violation.
  const Trace trace = {{true, false},  {false, false}, {false, true},
                       {true, false},  {false, false}, {false, false}};
  for (const auto& step : trace) {
    const Verdict expected = reference.step(valuation_of(step));
    EXPECT_EQ(compiled.step(word_of(step)), expected);
    EXPECT_EQ(compiled.state(), reference.state());
    EXPECT_EQ(compiled.obligation(),
              automaton.states()[reference.state()].obligation);
  }
  EXPECT_EQ(compiled.verdict(), Verdict::kViolated);
  // Sinks self-loop and decided monitors stop counting steps.
  const std::uint64_t decided_steps = compiled.steps();
  compiled.step(word_of({true, true}));
  EXPECT_EQ(compiled.verdict(), Verdict::kViolated);
  EXPECT_EQ(compiled.steps(), decided_steps);
}

TEST(CompiledTableTest, EndOfTraceVerdictsArePrecomputed) {
  FormulaFactory factory;
  // Strong operator: fails if the trace ends now.
  FormulaRef eventually = parse_fltl("F[2] ack", factory);
  // Weak operator: holds if the trace ends now.
  FormulaRef always = parse_fltl("G req", factory);

  CompiledTables tables;
  CompiledMonitor f_monitor =
      tables.compile(synthesize(factory, eventually), factory);
  CompiledMonitor g_monitor =
      tables.compile(synthesize(factory, always), factory);

  EXPECT_EQ(f_monitor.verdict_at_end(), Verdict::kViolated);
  EXPECT_EQ(g_monitor.verdict_at_end(), Verdict::kValidated);

  // After ack the F is validated outright; verdict_at_end follows suit.
  // ("F[2] ack" was parsed first, so ack is factory index 0: word bit 0.)
  f_monitor.step(0b01);
  EXPECT_EQ(f_monitor.verdict(), Verdict::kValidated);
  EXPECT_EQ(f_monitor.verdict_at_end(), Verdict::kValidated);
}

TEST(CompiledTableTest, ResetRestoresTheInitialState) {
  FormulaFactory factory;
  FormulaRef formula = parse_fltl("F[1] go", factory);
  const ArAutomaton automaton = synthesize(factory, formula);
  CompiledTables tables;
  CompiledMonitor monitor = tables.compile(automaton, factory);

  monitor.step(0);  // go false
  monitor.step(0);  // bound expires: violated
  EXPECT_EQ(monitor.verdict(), Verdict::kViolated);
  monitor.reset();
  EXPECT_EQ(monitor.state(), automaton.initial());
  EXPECT_EQ(monitor.verdict(), Verdict::kPending);
  EXPECT_EQ(monitor.steps(), 0u);
  monitor.step(1);  // go true: validated this time
  EXPECT_EQ(monitor.verdict(), Verdict::kValidated);
}

TEST(CompiledTableTest, PoolKeepsMonitorsIndependent) {
  FormulaFactory factory;
  CompiledTables tables;
  CompiledMonitor first =
      tables.compile(synthesize(factory, parse_fltl("G a", factory)), factory);
  CompiledMonitor second =
      tables.compile(synthesize(factory, parse_fltl("F b", factory)), factory);
  EXPECT_EQ(tables.monitor_count(), 2u);

  // a stays true, b stays false: the first must remain pending while the
  // second is driven through its own table rows.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(first.step(/*a=*/0b01), Verdict::kPending);
    EXPECT_EQ(second.step(/*a=*/0b01), Verdict::kPending);
  }
  EXPECT_EQ(second.step(/*b=*/0b10), Verdict::kValidated);
  EXPECT_EQ(first.step(0b01), Verdict::kPending);
}

TEST(CompiledTableTest, PropositionIndexBeyondTheWordIsRejected) {
  FormulaFactory factory;
  for (int i = 0; i < kMaxPropWordBits; ++i) {
    factory.prop("p" + std::to_string(i));
  }
  FormulaRef formula = factory.prop("p64");  // factory index 64
  const ArAutomaton automaton = synthesize(factory, formula);
  CompiledTables tables;
  EXPECT_THROW(tables.compile(automaton, factory), CompileError);
}

TEST(CompiledTableTest, DefaultConstructedHandleIsInvalid) {
  CompiledMonitor monitor;
  EXPECT_FALSE(monitor.valid());
}

// --- differential fuzz -------------------------------------------------------

/// Random formula generator, same shape as temporal_semantics_fuzz_test:
/// bounds drawn from [0, 5] (including the zero-bound edge case F[0]/G[0]),
/// X with offsets 1-3, and all binary temporal operators.
FormulaRef random_formula(FormulaFactory& f, common::Rng& rng, int props,
                          int depth) {
  if (depth == 0 || rng.next_chance(1, 4)) {
    switch (rng.next_below(4)) {
      case 0: return f.constant(rng.next_chance(1, 2));
      default:
        return f.prop("p" + std::to_string(rng.next_below(
                                static_cast<std::uint64_t>(props))));
    }
  }
  const auto sub = [&] { return random_formula(f, rng, props, depth - 1); };
  const auto maybe_bound = [&]() -> std::optional<std::uint32_t> {
    if (rng.next_chance(1, 2)) return std::nullopt;
    return static_cast<std::uint32_t>(rng.next_below(6));
  };
  switch (rng.next_below(9)) {
    case 0: return f.not_(sub());
    case 1: return f.and_(sub(), sub());
    case 2: return f.or_(sub(), sub());
    case 3: return f.implies(sub(), sub());
    case 4:
      return f.next(sub(), 1 + static_cast<std::uint32_t>(rng.next_below(3)));
    case 5: return f.eventually(sub(), maybe_bound());
    case 6: return f.always(sub(), maybe_bound());
    case 7: return f.until(sub(), sub(), maybe_bound());
    default: return f.release(sub(), sub(), maybe_bound());
  }
}

class CompiledFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CompiledFuzzTest, CompiledMatchesInterpretedTransitionForTransition) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 0xC0117 + 29);
  const int props = 2;

  for (int trial = 0; trial < 40; ++trial) {
    FormulaFactory factory;
    for (int p = 0; p < props; ++p) factory.prop("p" + std::to_string(p));
    FormulaRef formula = random_formula(factory, rng, props, 3);

    const std::size_t len = 1 + rng.next_below(10);
    Trace trace(len, std::vector<bool>(props));
    for (auto& step : trace) {
      for (int p = 0; p < props; ++p) {
        step[static_cast<std::size_t>(p)] = rng.next_chance(1, 2);
      }
    }

    // Keep worst-case trials cheap: random nesting of bounded operators can
    // make exhaustive progression enumerate a huge closure; such formulas
    // are skipped rather than synthesized for minutes.
    SynthesisOptions options;
    options.max_states = 1000;
    ArAutomaton automaton;
    try {
      automaton = synthesize(factory, formula, options);
    } catch (const SynthesisLimitError&) {
      continue;
    }
    CompiledTables tables;
    CompiledMonitor compiled = tables.compile(automaton, factory);
    AutomatonMonitor table(automaton);
    ProgressionMonitor interpreted(factory, formula);

    // Initial state: same obligation, same finite-trace resolution before
    // any step is consumed (the empty-trace edge case).
    ASSERT_EQ(compiled.obligation(), interpreted.current())
        << "formula: " << formula->to_string();
    ASSERT_EQ(compiled.verdict_at_end(), interpreted.verdict_at_end())
        << "formula: " << formula->to_string();

    for (std::size_t i = 0; i < len; ++i) {
      const Verdict expected = interpreted.step(valuation_of(trace[i]));
      const Verdict table_verdict = table.step(valuation_of(trace[i]));
      const Verdict got = compiled.step(word_of(trace[i]));

      // Verdict-for-verdict and transition-trace equality against both
      // independent implementations.
      ASSERT_EQ(got, expected)
          << "formula: " << formula->to_string() << "\ntrial " << trial
          << " step " << i;
      ASSERT_EQ(got, table_verdict)
          << "formula: " << formula->to_string() << "\ntrial " << trial
          << " step " << i;
      ASSERT_EQ(compiled.state(), table.state())
          << "formula: " << formula->to_string() << "\ntrial " << trial
          << " step " << i;
      ASSERT_EQ(compiled.obligation(), interpreted.current())
          << "formula: " << formula->to_string() << "\ntrial " << trial
          << " step " << i;
      // End-of-trace resolution must agree at *every* position, not just
      // where the random trace happens to stop.
      ASSERT_EQ(compiled.verdict_at_end(), interpreted.verdict_at_end())
          << "formula: " << formula->to_string() << "\ntrial " << trial
          << " step " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledFuzzTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace esv::temporal

// --- checker-level `both` mode ----------------------------------------------

namespace esv::sctc {
namespace {

using temporal::Verdict;

TEST(CheckerBothModeTest, LockstepRunNeverDiverges) {
  sim::Simulation sim;
  TemporalChecker checker(sim, "sctc", MonitorMode::kBoth);
  int x = 0;
  checker.register_proposition("small", [&x] { return x < 8; });
  checker.register_proposition("done", [&x] { return x == 5; });
  checker.add_property("stays_small", "G small");
  checker.add_property("finishes", "F done");
  checker.add_property("respond", "G (small -> F[10] done)");
  for (x = 0; x < 12; ++x) checker.step_all();

  EXPECT_EQ(checker.divergence_count(), 0u);
  EXPECT_TRUE(checker.divergences().empty());
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kViolated);
  EXPECT_EQ(checker.properties()[1].verdict(), Verdict::kValidated);
  EXPECT_EQ(checker.report().find("MONITOR-ERROR"), std::string::npos);
}

TEST(CheckerBothModeTest, CorruptedCompiledMonitorIsReportedAsDivergence) {
  sim::Simulation sim;
  TemporalChecker checker(sim, "sctc", MonitorMode::kBoth);
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  checker.set_metrics(&metrics);
  checker.set_trace(&trace);

  bool done = false;
  checker.register_proposition("done", [&done] { return done; });
  checker.add_property("finishes", "F done");
  checker.step_all();
  ASSERT_EQ(checker.divergence_count(), 0u);

  // "F done" has exactly two states: the pending obligation and the accept
  // sink. Forcing the compiled monitor into the other one guarantees the
  // next lockstep comparison trips.
  ASSERT_EQ(checker.properties()[0].automaton_states, 2u);
  checker.corrupt_compiled_for_test(
      0, 1u - checker.properties()[0].compiled.state());
  checker.step_all();

  ASSERT_EQ(checker.divergence_count(), 1u);
  EXPECT_NE(checker.divergences()[0].find("finishes"), std::string::npos);
  EXPECT_NE(checker.divergences()[0].find("diverged at step"),
            std::string::npos);
  EXPECT_TRUE(checker.properties()[0].diverged);
  // The reported verdict stays the interpreted oracle's.
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kPending);
  // Surfaced through every observability channel.
  EXPECT_EQ(metrics.snapshot().counters.at("sctc.divergences"), 1u);
  EXPECT_NE(trace.text().find("\"type\":\"monitor_divergence\""),
            std::string::npos);
  EXPECT_NE(checker.report().find("MONITOR-ERROR"), std::string::npos);

  // First divergence per property wins; later steps don't re-report.
  checker.step_all();
  EXPECT_EQ(checker.divergence_count(), 1u);

  // reset_monitors clears the divergence state along with the verdicts.
  checker.reset_monitors();
  EXPECT_EQ(checker.divergence_count(), 0u);
  EXPECT_FALSE(checker.properties()[0].diverged);
}

TEST(CheckerBothModeTest, CorruptHookRequiresACompiledMonitor) {
  sim::Simulation sim;
  TemporalChecker checker(sim, "sctc", MonitorMode::kProgression);
  checker.register_proposition("a", [] { return true; });
  checker.add_property("inv", "G a");
  EXPECT_THROW(checker.corrupt_compiled_for_test(0, 1), std::logic_error);
}

// --- limits fall back to progression -----------------------------------------

/// Runs `x` through 0..steps-1 and returns the verdict of property 0.
Verdict run_counter(TemporalChecker& checker, int& x, int steps) {
  for (x = 0; x < steps && !checker.all_decided(); ++x) checker.step_all();
  return checker.properties()[0].verdict();
}

TEST(CompiledFallbackTest, SeventeenPropositionsRunOnProgression) {
  // 17 propositions exceed synthesis's 16-proposition alphabet limit.
  std::string text = "G (";
  for (int i = 0; i < 17; ++i) text += (i ? " || p" : "p") + std::to_string(i);
  text += ")";
  Verdict expected = Verdict::kPending;
  for (const MonitorMode mode : {MonitorMode::kProgression,
                                 MonitorMode::kCompiled, MonitorMode::kBoth}) {
    sim::Simulation sim;
    TemporalChecker checker(sim, "sctc", mode);
    int x = 0;
    for (int i = 0; i < 17; ++i) {
      checker.register_proposition("p" + std::to_string(i),
                                   [&x, i] { return x == i; });
    }
    checker.add_property("any", text);
    const PropertyRecord& record = checker.properties()[0];
    EXPECT_FALSE(record.compiled.valid()) << monitor_mode_name(mode);
    EXPECT_NE(record.progression, nullptr) << monitor_mode_name(mode);
    EXPECT_EQ(record.automaton_states, 0u) << monitor_mode_name(mode);
    const Verdict verdict = run_counter(checker, x, 20);
    if (mode == MonitorMode::kProgression) expected = verdict;
    EXPECT_EQ(verdict, expected) << monitor_mode_name(mode);
    EXPECT_EQ(checker.divergence_count(), 0u);
  }
  EXPECT_EQ(expected, Verdict::kViolated);  // x == 17 matches no p_i
}

TEST(CompiledFallbackTest, PropositionIndex64RunsOnProgression) {
  // Index 64 is past the 64-bit proposition word: synthesis succeeds,
  // compilation does not. Property 1 (indices 0 and 1) still compiles.
  Verdict expected[2] = {};
  for (const MonitorMode mode :
       {MonitorMode::kProgression, MonitorMode::kCompiled}) {
    sim::Simulation sim;
    TemporalChecker checker(sim, "sctc", mode);
    int x = 0;
    for (int i = 0; i <= 64; ++i) {
      checker.register_proposition("p" + std::to_string(i),
                                   [&x, i] { return x == i % 8; });
    }
    checker.add_property("late", "G (p64 -> F[3] p1)");
    checker.add_property("early", "G (p0 -> F[3] p1)");
    EXPECT_EQ(checker.properties()[0].compiled.valid(), false);
    EXPECT_EQ(checker.properties()[1].compiled.valid(),
              mode == MonitorMode::kCompiled);
    run_counter(checker, x, 8);
    for (int p = 0; p < 2; ++p) {
      const Verdict verdict = checker.properties()[p].verdict();
      if (mode == MonitorMode::kProgression) expected[p] = verdict;
      EXPECT_EQ(verdict, expected[p]) << p;
    }
  }
  // x == 0 (p64 and p0, 64 % 8 == 0), then x == 1 answers within the bound.
  EXPECT_EQ(expected[0], Verdict::kPending);
}

// --- shared monitor tables ---------------------------------------------------

TEST(MonitorTablesTest, CheckersSharingTablesMatchPrivateTables) {
  const MonitorTables tables(
      {"small", "done"},
      {{"G small", temporal::Dialect::kFltl},
       {"G (small -> F[10] done)", temporal::Dialect::kFltl},
       {"always (small -> eventually! done)", temporal::Dialect::kPsl}});
  ASSERT_EQ(tables.size(), 3u);

  const auto run = [](const MonitorTables* shared, int limit) {
    sim::Simulation sim;
    TemporalChecker checker(sim, "sctc", MonitorMode::kCompiled);
    if (shared != nullptr) checker.use_monitor_tables(shared);
    int x = 0;
    checker.register_proposition("small", [&x] { return x < 8; });
    checker.register_proposition("done", [&x, limit] { return x == limit; });
    checker.add_property("stays_small", "G small");
    checker.add_property("respond", "G (small -> F[10] done)");
    checker.add_property("psl", "always (small -> eventually! done)",
                         temporal::Dialect::kPsl);
    for (x = 0; x < 12; ++x) checker.step_all();
    std::string result;
    for (const PropertyRecord& record : checker.properties()) {
      result += std::string(temporal::to_string(record.verdict())) + "@" +
                std::to_string(record.decided_at_step) + "/" +
                std::to_string(record.automaton_states) + " ";
    }
    return result;
  };
  // Two runs on the same tables stay independent: each keeps its own
  // states, so the second run's different trace gives its own verdicts.
  for (const int limit : {5, 20}) {
    EXPECT_EQ(run(&tables, limit), run(nullptr, limit)) << limit;
  }
  EXPECT_NE(run(&tables, 5), run(&tables, 20));
}

TEST(MonitorTablesTest, MismatchedPropertiesOrPropositionsAreRejected) {
  const MonitorTables tables({"a", "b"},
                             {{"G (a -> F[2] b)", temporal::Dialect::kFltl}});
  {
    // Propositions registered in the other order: bit 0 would read b.
    sim::Simulation sim;
    TemporalChecker checker(sim, "sctc", MonitorMode::kCompiled);
    checker.use_monitor_tables(&tables);
    checker.register_proposition("b", [] { return true; });
    checker.register_proposition("a", [] { return true; });
    EXPECT_THROW(checker.add_property("p", "G (a -> F[2] b)"),
                 std::logic_error);
  }
  {
    sim::Simulation sim;
    TemporalChecker checker(sim, "sctc", MonitorMode::kCompiled);
    checker.use_monitor_tables(&tables);
    checker.register_proposition("a", [] { return true; });
    checker.register_proposition("b", [] { return true; });
    EXPECT_THROW(checker.add_property("p", "G (a -> F[3] b)"),
                 std::logic_error);
    checker.add_property("p", "G (a -> F[2] b)");
    // The tables hold one property; a second has nothing to attach to.
    EXPECT_THROW(checker.add_property("q", "G (a -> F[2] b)"),
                 std::logic_error);
  }
  {
    sim::Simulation sim;
    TemporalChecker checker(sim, "sctc", MonitorMode::kBoth);
    EXPECT_THROW(checker.use_monitor_tables(&tables), std::logic_error);
  }
}

// --- zero-allocation steady state -------------------------------------------

TEST(CompiledAllocationTest, SteadyStateSteppingIsAllocationFree) {
  sim::Simulation sim;
  TemporalChecker checker(sim, "sctc", MonitorMode::kCompiled);
  int tick = 0;
  checker.register_proposition("req", [&tick] { return tick % 16 == 0; });
  checker.register_proposition("ack", [&tick] { return tick % 16 == 5; });
  checker.register_proposition("err", [&tick] { return false; });
  // Stays pending forever and keeps moving through non-sink states, so the
  // measured loop exercises real transitions, not a decided monitor's
  // early-out.
  checker.add_property("respond", "G (req -> F[8] (ack || err))");
  checker.add_property("no_error", "G !err");

  // Warm-up: first steps may touch lazily allocated caches.
  for (; tick < 64; ++tick) checker.step_all();
  ASSERT_EQ(checker.pending_count(), 2u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (; tick < 64 + 4096; ++tick) checker.step_all();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in 4096 compiled-mode steps";
  EXPECT_EQ(checker.pending_count(), 2u);
  EXPECT_EQ(checker.steps(), 64u + 4096u);
}

}  // namespace
}  // namespace esv::sctc
