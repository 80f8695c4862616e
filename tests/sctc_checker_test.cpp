// Tests for the SCTC temporal checker: propositions, property registration,
// trigger binding, both monitor modes, and the ESW monitor handshake.
#include <gtest/gtest.h>

#include <map>

#include "sctc/checker.hpp"
#include "sctc/esw_monitor.hpp"
#include "sim/clock.hpp"

namespace esv::sctc {
namespace {

using temporal::Verdict;

TEST(PropositionTest, LambdaAndIsFalse) {
  bool value = false;
  LambdaProposition p([&value] { return value; });
  EXPECT_FALSE(p.is_true());
  EXPECT_TRUE(p.is_false());
  value = true;
  EXPECT_TRUE(p.is_true());
}

TEST(PropositionTest, CloneIsIndependentObject) {
  bool value = true;
  LambdaProposition p([&value] { return value; });
  auto c = p.clone();
  EXPECT_TRUE(c->is_true());
  value = false;
  EXPECT_FALSE(c->is_true());  // clones share the wrapped predicate
}

class FakeMemory : public mem::MemoryReadInterface {
 public:
  std::uint32_t sctc_read_uint(std::uint32_t address) const override {
    auto it = words.find(address);
    return it == words.end() ? 0u : it->second;
  }
  std::map<std::uint32_t, std::uint32_t> words;
};

TEST(PropositionTest, MemoryWordComparisons) {
  FakeMemory mem;
  mem.words[0x100] = 42;
  EXPECT_TRUE(MemoryWordProposition(mem, 0x100, Compare::kEq, 42).is_true());
  EXPECT_FALSE(MemoryWordProposition(mem, 0x100, Compare::kNe, 42).is_true());
  EXPECT_TRUE(MemoryWordProposition(mem, 0x100, Compare::kLt, 43).is_true());
  EXPECT_TRUE(MemoryWordProposition(mem, 0x100, Compare::kLe, 42).is_true());
  EXPECT_TRUE(MemoryWordProposition(mem, 0x100, Compare::kGt, 41).is_true());
  EXPECT_TRUE(MemoryWordProposition(mem, 0x100, Compare::kGe, 42).is_true());
  EXPECT_FALSE(MemoryWordProposition(mem, 0x999, Compare::kEq, 42).is_true());
}

TEST(PropositionTest, RisingEdgeFiresOncePerEdge) {
  bool value = false;
  auto inner = std::make_unique<LambdaProposition>([&value] { return value; });
  RisingEdgeProposition edge(std::move(inner));
  EXPECT_FALSE(edge.is_true());
  value = true;
  EXPECT_TRUE(edge.is_true());   // 0 -> 1
  EXPECT_FALSE(edge.is_true());  // stays 1: no new edge
  value = false;
  EXPECT_FALSE(edge.is_true());
  value = true;
  EXPECT_TRUE(edge.is_true());
}

// --- TemporalChecker ---------------------------------------------------------

class CheckerTest : public ::testing::TestWithParam<MonitorMode> {
 protected:
  sim::Simulation sim;
};

TEST_P(CheckerTest, ViolationDetected) {
  TemporalChecker checker(sim, "sctc", GetParam());
  int x = 0;
  checker.register_proposition("x_small", [&x] { return x < 3; });
  checker.add_property("keep_small", "G x_small");
  for (x = 0; x < 5; ++x) {
    checker.step_all();
  }
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kViolated);
  EXPECT_EQ(checker.properties()[0].decided_at_step, 4u);  // x==3 at step 4
  EXPECT_EQ(checker.violated_count(), 1u);
  EXPECT_TRUE(checker.any_violated());
}

TEST_P(CheckerTest, ValidationDetected) {
  TemporalChecker checker(sim, "sctc", GetParam());
  int x = 0;
  checker.register_proposition("done", [&x] { return x == 3; });
  checker.add_property("finishes", "F done");
  for (x = 0; x < 5; ++x) checker.step_all();
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kValidated);
  EXPECT_EQ(checker.validated_count(), 1u);
}

TEST_P(CheckerTest, MultiplePropertiesIndependent) {
  TemporalChecker checker(sim, "sctc", GetParam());
  int x = 0;
  checker.register_proposition("p", [&x] { return x % 2 == 0; });
  checker.register_proposition("q", [&x] { return x > 100; });
  checker.add_property("tautology", "G (p || !p)");  // folds to true at parse
  checker.add_property("never_q", "G !q");
  checker.add_property("eventually_q", "F q");
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kValidated);
  for (x = 0; x < 10; ++x) checker.step_all();
  EXPECT_EQ(checker.pending_count(), 2u);  // the two real ones still pending
  x = 101;
  checker.step_all();
  EXPECT_EQ(checker.properties()[1].verdict(), Verdict::kViolated);
  EXPECT_EQ(checker.properties()[2].verdict(), Verdict::kValidated);
}

TEST_P(CheckerTest, UnregisteredPropositionRejected) {
  TemporalChecker checker(sim, "sctc", GetParam());
  checker.register_proposition("a", [] { return true; });
  EXPECT_THROW(checker.add_property("bad", "G (a && missing)"),
               std::runtime_error);
}

TEST_P(CheckerTest, BoundedPropertyCountsTriggerSteps) {
  TemporalChecker checker(sim, "sctc", GetParam());
  bool ok = false;
  checker.register_proposition("ok", [&ok] { return ok; });
  checker.add_property("soon", "F[3] ok");
  checker.step_all();
  checker.step_all();
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kPending);
  ok = true;
  checker.step_all();
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kValidated);
}

TEST_P(CheckerTest, BoundedPropertyExpires) {
  TemporalChecker checker(sim, "sctc", GetParam());
  checker.register_proposition("ok", [] { return false; });
  checker.add_property("soon", "F[3] ok");
  for (int i = 0; i < 4; ++i) checker.step_all();
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kViolated);
  EXPECT_EQ(checker.properties()[0].decided_at_step, 4u);
}

TEST_P(CheckerTest, TriggerBindingStepsOnEvent) {
  TemporalChecker checker(sim, "sctc", GetParam());
  sim::Clock clk(sim, "clk", sim::Time::ns(10));
  checker.register_proposition("tick", [] { return true; });
  checker.add_property("alive", "G tick");
  checker.bind_trigger(clk.posedge_event());
  sim.run(sim::Time::ns(100));
  EXPECT_EQ(checker.steps(), 10u);
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kPending);
}

TEST_P(CheckerTest, StopOnViolationHaltsSimulation) {
  TemporalChecker checker(sim, "sctc", GetParam());
  sim::Clock clk(sim, "clk", sim::Time::ns(10));
  checker.register_proposition("early", [&] { return sim.now() < sim::Time::ns(35); });
  checker.add_property("always_early", "G early");
  checker.bind_trigger(clk.posedge_event());
  checker.set_stop_on_violation(true);
  sim.run(sim::Time::us(1));
  // Violated at the 4th posedge (t=40ns); simulation stops there.
  EXPECT_EQ(sim.now(), sim::Time::ns(40));
  EXPECT_TRUE(checker.any_violated());
}

TEST_P(CheckerTest, ResetMonitorsClearsVerdicts) {
  TemporalChecker checker(sim, "sctc", GetParam());
  bool ok = true;
  checker.register_proposition("ok", [&ok] { return ok; });
  checker.add_property("inv", "G ok");
  ok = false;
  checker.step_all();
  EXPECT_TRUE(checker.any_violated());
  checker.reset_monitors();
  EXPECT_EQ(checker.pending_count(), 1u);
  EXPECT_EQ(checker.steps(), 0u);
  ok = true;
  checker.step_all();
  EXPECT_EQ(checker.pending_count(), 1u);
}

TEST_P(CheckerTest, ReportMentionsEveryProperty) {
  TemporalChecker checker(sim, "sctc", GetParam());
  checker.register_proposition("a", [] { return true; });
  checker.add_property("first", "G a");
  checker.add_property("second", "F a");
  checker.step_all();
  const std::string report = checker.report();
  EXPECT_NE(report.find("first"), std::string::npos);
  EXPECT_NE(report.find("second"), std::string::npos);
  EXPECT_NE(report.find("validated"), std::string::npos);
}

TEST_P(CheckerTest, PslDialectSupported) {
  TemporalChecker checker(sim, "sctc", GetParam());
  bool req = false;
  bool ack = false;
  checker.register_proposition("req", [&req] { return req; });
  checker.register_proposition("ack", [&ack] { return ack; });
  checker.add_property("response", "always (req -> eventually! ack)",
                       temporal::Dialect::kPsl);
  req = true;
  checker.step_all();
  req = false;
  checker.step_all();
  EXPECT_EQ(checker.properties()[0].verdict(), Verdict::kPending);
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckerTest,
                         ::testing::Values(MonitorMode::kProgression,
                                           MonitorMode::kSynthesizedAutomaton,
                                           MonitorMode::kCompiled,
                                           MonitorMode::kBoth),
                         [](const ::testing::TestParamInfo<MonitorMode>& info) {
                           return monitor_mode_name(info.param);
                         });

TEST(CheckerModeTest, AutomatonModeRecordsStateCount) {
  sim::Simulation sim;
  TemporalChecker checker(sim, "sctc", MonitorMode::kSynthesizedAutomaton);
  checker.register_proposition("a", [] { return true; });
  checker.add_property("bounded", "F[50] a");
  EXPECT_GT(checker.properties()[0].automaton_states, 50u);
}

TEST(CheckerModeTest, ModeNamesRoundTrip) {
  for (const MonitorMode mode :
       {MonitorMode::kProgression, MonitorMode::kSynthesizedAutomaton,
        MonitorMode::kCompiled, MonitorMode::kBoth}) {
    const auto parsed = parse_monitor_mode(monitor_mode_name(mode));
    ASSERT_TRUE(parsed.has_value()) << monitor_mode_name(mode);
    EXPECT_EQ(*parsed, mode);
  }
  // The CLI spelling "interpreted" is an alias for the progression rewriter.
  EXPECT_EQ(parse_monitor_mode("interpreted"), MonitorMode::kProgression);
  EXPECT_EQ(parse_monitor_mode("bogus"), std::nullopt);
}

// --- EswMonitor (handshake protocol, Fig. 3) ---------------------------------

class HandshakeMemory : public mem::MemoryReadInterface {
 public:
  std::uint32_t sctc_read_uint(std::uint32_t address) const override {
    if (address == kFlagAddress) return flag ? 1 : 0;
    if (address == kVarAddress) return var;
    return 0;
  }
  static constexpr std::uint32_t kFlagAddress = 0x1000;
  static constexpr std::uint32_t kVarAddress = 0x1004;
  bool flag = false;
  std::uint32_t var = 0;
};

TEST(EswMonitorTest, WaitsForFlagBeforeInstantiatingProperties) {
  sim::Simulation sim;
  sim::Clock clk(sim, "clk", sim::Time::ns(10));
  HandshakeMemory mem;
  bool setup_ran = false;
  EswMonitor monitor(
      sim, "esw", clk.posedge_event(), mem, HandshakeMemory::kFlagAddress,
      [&](TemporalChecker& checker) {
        setup_ran = true;
        checker.register_proposition(
            "var_ok", std::make_unique<MemoryWordProposition>(
                          mem, HandshakeMemory::kVarAddress, Compare::kLt, 10));
        checker.add_property("inv", "G var_ok");
      });
  // Software initializes its flag only at 55 ns.
  sim.spawn("sw", [](sim::Simulation& s, HandshakeMemory& m) -> sim::Task {
    co_await s.delay(sim::Time::ns(55));
    m.flag = true;
  }(sim, mem));

  sim.run(sim::Time::ns(50));
  EXPECT_FALSE(monitor.initialized());
  EXPECT_FALSE(setup_ran);
  EXPECT_EQ(monitor.checker().steps(), 0u);

  sim.run(sim::Time::ns(200));
  EXPECT_TRUE(monitor.initialized());
  EXPECT_TRUE(setup_ran);
  // Flag observed at the 60 ns posedge; monitoring starts with the 70 ns
  // posedge: 14 remaining edges up to 200 ns.
  EXPECT_EQ(monitor.handshake_steps(), 6u);
  EXPECT_EQ(monitor.checker().steps(), 14u);
  EXPECT_EQ(monitor.checker().pending_count(), 1u);
}

TEST(EswMonitorTest, DetectsViolationOfMemoryBackedProperty) {
  sim::Simulation sim;
  sim::Clock clk(sim, "clk", sim::Time::ns(10));
  HandshakeMemory mem;
  mem.flag = true;  // software ready from the start
  EswMonitor monitor(
      sim, "esw", clk.posedge_event(), mem, HandshakeMemory::kFlagAddress,
      [&](TemporalChecker& checker) {
        checker.register_proposition(
            "var_ok", std::make_unique<MemoryWordProposition>(
                          mem, HandshakeMemory::kVarAddress, Compare::kLt, 10));
        checker.add_property("inv", "G var_ok");
      });
  sim.spawn("sw", [](sim::Simulation& s, HandshakeMemory& m) -> sim::Task {
    co_await s.delay(sim::Time::ns(95));
    m.var = 42;  // violates var < 10
  }(sim, mem));
  sim.run(sim::Time::us(1));
  EXPECT_TRUE(monitor.checker().any_violated());
  EXPECT_EQ(monitor.checker().properties()[0].decided_at_time,
            sim::Time::ns(100));
}

}  // namespace
}  // namespace esv::sctc
