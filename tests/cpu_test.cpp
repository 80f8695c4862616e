// Tests for the code generator and the microprocessor model. The reference
// semantics is the derived-model interpreter: a parameterized differential
// suite runs the same programs on both platforms and compares all globals.
#include <gtest/gtest.h>

#include "cpu/codegen.hpp"
#include "cpu/cpu.hpp"
#include "esw/esw_program.hpp"
#include "esw/interpreter.hpp"
#include "flash/flash_controller.hpp"
#include "minic/sema.hpp"
#include "sctc/esw_monitor.hpp"

namespace esv::cpu {
namespace {

/// Runs `source` on the CPU until it halts (with a cycle budget).
struct CpuRunner {
  explicit CpuRunner(const std::string& source,
                     minic::InputProvider* provider = nullptr)
      : program(minic::compile(source)),
        image(compile_to_image(program)),
        memory(0x10000),
        clock(sim, "clk", sim::Time::ns(10)),
        core(sim, "cpu", image, memory,
             provider != nullptr ? *provider : zero_inputs, clock) {}

  void run(sim::Time budget = sim::Time::ms(10)) {
    sim.run(budget);
    ASSERT_TRUE(core.halted()) << "CPU did not halt within the budget";
  }

  std::uint32_t global(const std::string& name) const {
    return memory.sctc_read_uint(program.find_global(name)->address);
  }

  minic::Program program;
  CodeImage image;
  sim::Simulation sim;
  mem::AddressSpace memory;
  minic::ZeroInputProvider zero_inputs;
  sim::Clock clock;
  Cpu core;
};

TEST(CodegenTest, DisassembleShowsFunctionsAndMnemonics) {
  minic::Program program = minic::compile(
      "int x; void main(void) { x = 1 + 2; }");
  CodeImage image = compile_to_image(program);
  const std::string dis = image.disassemble();
  EXPECT_NE(dis.find("main:"), std::string::npos);
  EXPECT_NE(dis.find("pushi"), std::string::npos);
  EXPECT_NE(dis.find("stg"), std::string::npos);
  EXPECT_NE(dis.find("ret"), std::string::npos);
}

TEST(CodegenTest, EntryPcPointsAtMain) {
  minic::Program program = minic::compile(
      "void helper(void) {} void main(void) { helper(); }");
  CodeImage image = compile_to_image(program);
  const auto main_index =
      static_cast<std::size_t>(program.find_function("main")->index);
  EXPECT_EQ(image.entry_pc, image.functions[main_index].entry_pc);
  EXPECT_NE(image.entry_pc, 0u);  // helper was emitted first
}

TEST(CpuTest, HaltsAfterMainReturns) {
  CpuRunner r("int x; void main(void) { x = 5; }");
  r.run();
  EXPECT_EQ(r.global("x"), 5u);
  EXPECT_FALSE(r.core.trapped());
  EXPECT_GT(r.core.instructions_retired(), 0u);
  // Memory instructions cost wait states: cycles strictly exceed instructions.
  EXPECT_GT(r.core.cycles_consumed(), r.core.instructions_retired());
}

TEST(CpuTest, FnameFollowsCallsAndReturns) {
  CpuRunner r(R"(
    int seen_helper; int seen_main;
    void helper(void) { seen_helper = fname; }
    void main(void) {
      helper();
      seen_main = fname;
    }
  )");
  r.run();
  EXPECT_EQ(r.global("seen_helper"), r.program.fname_id("helper"));
  EXPECT_EQ(r.global("seen_main"), r.program.fname_id("main"));
}

TEST(CpuTest, TrapOnAssertFailure) {
  CpuRunner r("int x; void main(void) { assert(x == 1); }");
  r.sim.run(sim::Time::ms(1));
  EXPECT_TRUE(r.core.trapped());
  EXPECT_NE(r.core.trap_message().find("assertion failed"), std::string::npos);
}

TEST(CpuTest, TrapOnDivisionByZero) {
  CpuRunner r("int x; void main(void) { x = 1 / x; }");
  r.sim.run(sim::Time::ms(1));
  EXPECT_TRUE(r.core.trapped());
  EXPECT_NE(r.core.trap_message().find("division"), std::string::npos);
}

TEST(CpuTest, TrapOnMemoryFault) {
  CpuRunner r("int x; void main(void) { x = *(0xE0000000); }");
  r.sim.run(sim::Time::ms(1));
  EXPECT_TRUE(r.core.trapped());
  EXPECT_NE(r.core.trap_message().find("memory fault"), std::string::npos);
}

TEST(CpuTest, ResetRestartsExecution) {
  CpuRunner r("int x; void main(void) { x = x + 1; }");
  r.run();
  EXPECT_EQ(r.global("x"), 1u);
  r.core.reset();
  EXPECT_FALSE(r.core.halted());
  while (r.core.step_instruction()) {
  }
  EXPECT_EQ(r.global("x"), 1u);
}

TEST(CpuTest, ScriptedInputsReachTheCore) {
  class Script : public minic::InputProvider {
   public:
    std::uint32_t input(int, const std::string&) override { return 9; }
  };
  Script script;
  CpuRunner r("int x; void main(void) { x = __in(a) + __in(a); }", &script);
  r.run();
  EXPECT_EQ(r.global("x"), 18u);
}

TEST(CpuTest, DrivesFlashController) {
  flash::FlashConfig cfg;
  cfg.pages = 2;
  cfg.words_per_page = 4;
  cfg.program_busy_ticks = 3;
  flash::FlashController flash_dev(cfg);
  CpuRunner r(R"(
    unsigned status;
    void main(void) {
      *(0xF0000004) = 4;        // ADDR
      *(0xF0000008) = 0x5A;     // DATA
      *(0xF0000000) = 2;        // CMD = PROGRAM
      while ((*(0xF000000C) & 1) == 1) { }
      status = *(0xF000000C);
    }
  )");
  r.memory.map_device(0xF0000000, flash_dev.window_bytes(), flash_dev);
  r.run();
  EXPECT_EQ(flash_dev.word_at(4), 0x5Au);
  EXPECT_FALSE(flash_dev.error());
}

// --- differential suite: CPU vs derived-model interpreter --------------------

struct DiffCase {
  const char* name;
  const char* source;
  std::vector<const char*> observables;
};

// Print a case by its name: gtest's default dumps the raw bytes, which here
// are pointers and so make the listed test names differ from build to build.
void PrintTo(const DiffCase& tc, std::ostream* os) { *os << tc.name; }

class CpuVsEswTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CpuVsEswTest, GlobalsAgree) {
  const DiffCase& tc = GetParam();

  // Reference: derived-model interpreter.
  minic::Program program_a = minic::compile(tc.source);
  esw::EswProgram lowered = esw::lower_program(program_a);
  mem::AddressSpace mem_a(0x10000);
  minic::ZeroInputProvider in_a;
  esw::Interpreter interp(program_a, lowered, mem_a, in_a);
  interp.run(1000000);
  ASSERT_TRUE(interp.finished());

  // Subject: compiled image on the CPU.
  CpuRunner r(tc.source);
  r.run();

  for (const char* name : tc.observables) {
    EXPECT_EQ(r.global(name), interp.global(name))
        << tc.name << ": global " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, CpuVsEswTest,
    ::testing::Values(
        DiffCase{"arith",
                 "int a; int b; int c;"
                 "void main(void) { a = 7*3+2; b = (a-5)/4; c = a % 5; }",
                 {"a", "b", "c"}},
        DiffCase{"signed_ops",
                 "int a; int b; int c;"
                 "void main(void) { a = -7 / 2; b = -7 % 2; c = -1 < 0; }",
                 {"a", "b", "c"}},
        DiffCase{"bitops",
                 "int a; int b; int c; int d;"
                 "void main(void) { a = 0xF0 | 0x0F; b = a & 0x3C; "
                 "c = a ^ b; d = ~a & 0xFF; }",
                 {"a", "b", "c", "d"}},
        DiffCase{"shifts",
                 "int a; int b;"
                 "void main(void) { a = 1 << 10; b = a >> 3; }",
                 {"a", "b"}},
        DiffCase{"short_circuit",
                 // No calls on short-circuited sides (the derivation rejects
                 // them); instead check normalization and that the guarded
                 // division is never evaluated.
                 "int a; int r1; int r2; int r3; int r4; int r5;"
                 "void main(void) {"
                 "  a = 0;"
                 "  r1 = 0 && 5;"
                 "  r2 = 2 && 9;"      // normalized to 1
                 "  r3 = 0 || 7;"      // normalized to 1
                 "  r4 = 0 || 0;"
                 "  r5 = a && (1 / a);"  // short-circuit avoids the trap
                 "}",
                 {"r1", "r2", "r3", "r4", "r5"}},
        DiffCase{"loops",
                 "int sum; int prod;"
                 "void main(void) {"
                 "  int i; sum = 0; prod = 1;"
                 "  for (i = 1; i <= 8; i++) { sum += i; }"
                 "  i = 1; while (i <= 5) { prod = prod * i; i++; }"
                 "}",
                 {"sum", "prod"}},
        DiffCase{"switch_fallthrough",
                 "int r0; int r1; int r5;"
                 "int f(int v) { int r; r = 0; switch (v) {"
                 "  case 0: r = 10; break; case 1: case 2: r = 20; break;"
                 "  default: r = 99; } return r; }"
                 "void main(void) { r0 = f(0); r1 = f(1); r5 = f(5); }",
                 {"r0", "r1", "r5"}},
        DiffCase{"recursion",
                 "int result;"
                 "int fib(int n) { if (n < 2) { return n; }"
                 "  int a = fib(n-1); int b = fib(n-2); return a + b; }"
                 "void main(void) { result = fib(12); }",
                 {"result"}},
        DiffCase{"arrays",
                 "int t[6]; int sum;"
                 "void main(void) { int i;"
                 "  for (i = 0; i < 6; i++) { t[i] = i * 3; }"
                 "  sum = 0;"
                 "  for (i = 0; i < 6; i++) { sum += t[i]; } }",
                 {"sum"}},
        DiffCase{"ternary_nested",
                 "int a; int b;"
                 "void main(void) { int x; x = 7;"
                 "  a = x > 5 ? (x > 6 ? 1 : 2) : 3;"
                 "  b = x < 5 ? 4 : x == 7 ? 5 : 6; }",
                 {"a", "b"}},
        DiffCase{"globals_init",
                 "enum { SEED = 3 }; int x = SEED; int y = 0x20;"
                 "int t[3] = {9, 8}; int out;"
                 "void main(void) { out = x + y + t[0] + t[1] + t[2]; }",
                 {"out"}},
        DiffCase{"do_while_continue",
                 "int n; int odd_sum;"
                 "void main(void) { n = 0; odd_sum = 0;"
                 "  do { n++; if (n % 2 == 0) { continue; } odd_sum += n; }"
                 "  while (n < 9); }",
                 {"n", "odd_sum"}}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return info.param.name;
    });

// --- approach-1 integration: SCTC on the CPU clock ---------------------------

TEST(Approach1Test, EswMonitorHandshakeAndProperty) {
  const char* source = R"(
    bool flag;
    int var1;
    void test1(void) { var1 = var1 + 1; }
    void main(void) {
      flag = true;        // protocol: software initialized
      var1 = 0;
      while (var1 < 20) { test1(); }
    }
  )";
  minic::Program program = minic::compile(source);
  CodeImage image = compile_to_image(program);
  sim::Simulation sim;
  mem::AddressSpace memory(0x10000);
  minic::ZeroInputProvider inputs;
  sim::Clock clock(sim, "clk", sim::Time::ns(10));
  Cpu core(sim, "cpu", image, memory, inputs, clock);

  const std::uint32_t var1_addr = program.find_global("var1")->address;
  const std::uint32_t flag_addr = program.find_global("flag")->address;

  sctc::EswMonitor monitor(
      sim, "esw", clock.posedge_event(), memory, flag_addr,
      [&](sctc::TemporalChecker& checker) {
        checker.register_proposition(
            "var1_done", std::make_unique<sctc::MemoryWordProposition>(
                             memory, var1_addr, sctc::Compare::kGe, 20));
        checker.register_proposition(
            "in_test1", std::make_unique<sctc::MemoryWordProposition>(
                            memory, program.fname_address, sctc::Compare::kEq,
                            program.fname_id("test1")));
        checker.add_property("reaches20", "F var1_done");
        checker.add_property("test1_runs", "F in_test1");
      });

  sim.run(sim::Time::ms(10));
  EXPECT_TRUE(core.halted());
  EXPECT_TRUE(monitor.initialized());
  EXPECT_EQ(monitor.checker().validated_count(), 2u);
}

}  // namespace
}  // namespace esv::cpu
