// Wire-layer tests for the distributed campaign runner: JSON parsing,
// length-prefixed framing (including the incremental FrameReader and a
// multi-threaded socketpair writer exercised under -DESV_TSAN=ON), protocol
// frame round-trips, and lossless domain serialization. The round-trip tests
// are the regression net for broker/worker skew: a field added to SeedResult
// without wire support shows up here, not as a silent campaign diff.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/codec.hpp"
#include "dist/protocol.hpp"
#include "dist/wire.hpp"
#include "obs/metrics.hpp"

namespace esv::dist {
namespace {

TEST(DistJsonTest, ParsesScalarsExactly) {
  Json doc = Json::parse(
      R"({"u":18446744073709551615,"d":0.25,"s":"a\"b\\c\nA","b":true,)"
      R"("n":null,"arr":[1,2,3]})");
  EXPECT_EQ(doc.at("u").as_u64(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(doc.at("d").as_double(), 0.25);
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c\nA");
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_EQ(doc.at("n").type(), Json::Type::kNull);
  ASSERT_EQ(doc.at("arr").items().size(), 3u);
  EXPECT_EQ(doc.at("arr").items()[2].as_u64(), 3u);
  EXPECT_TRUE(doc.has("u"));
  EXPECT_FALSE(doc.has("missing"));
  EXPECT_EQ(doc.u64_or("missing", 7), 7u);
}

TEST(DistJsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), WireError);
  EXPECT_THROW(Json::parse("{"), WireError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), WireError);
  EXPECT_THROW(Json::parse("{'a':1}"), WireError);
  EXPECT_THROW(Json::parse("{\"a\":01x}"), WireError);
  Json doc = Json::parse("{\"a\":1}");
  EXPECT_THROW(doc.at("b"), WireError);
  EXPECT_THROW(doc.at("a").as_string(), WireError);
  EXPECT_THROW(doc.as_u64(), WireError);

  // Nesting is capped so a hostile document cannot exhaust the stack of the
  // recursive parser: exactly at the cap parses, one level past throws.
  const std::size_t cap = common::kMaxJsonDepth;
  EXPECT_NO_THROW(
      Json::parse(std::string(cap, '[') + std::string(cap, ']')));
  EXPECT_THROW(
      Json::parse(std::string(cap + 1, '[') + std::string(cap + 1, ']')),
      WireError);
  std::string objects;
  for (std::size_t i = 0; i < cap; ++i) objects += "{\"a\":";
  EXPECT_NO_THROW(Json::parse(objects + "1" + std::string(cap, '}')));
  EXPECT_THROW(Json::parse("{\"a\":" + objects + "1" +
                           std::string(cap + 1, '}')),
               WireError);
}

TEST(DistJsonTest, EscapesRoundTrip) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  Json doc = Json::parse("{\"v\":" + json_string(nasty) + "}");
  EXPECT_EQ(doc.at("v").as_string(), nasty);

  // The exact bytes every writer (report, trace, fuzz reproducer, wire,
  // journal) emits: short escapes for five characters, \u00xx for the rest
  // of the C0 controls, everything else (DEL, UTF-8 bytes) passed through.
  EXPECT_EQ(json_string("\""), "\"\\\"\"");
  EXPECT_EQ(json_string("\\"), "\"\\\\\"");
  EXPECT_EQ(json_string("\n"), "\"\\n\"");
  EXPECT_EQ(json_string("\r"), "\"\\r\"");
  EXPECT_EQ(json_string("\t"), "\"\\t\"");
  EXPECT_EQ(json_string("\x01"), "\"\\u0001\"");
  EXPECT_EQ(json_string("\x1f"), "\"\\u001f\"");
  EXPECT_EQ(json_string("\x7f"), "\"\x7f\"");
  EXPECT_EQ(json_string("\xc3\xa9"), "\"\xc3\xa9\"");
  EXPECT_EQ(json_string("/"), "\"/\"");
}

TEST(DistFramingTest, FrameReaderReassemblesByteAtATime) {
  // Encode two frames through a socketpair, then feed the reader one byte at
  // a time: framing must never depend on read boundaries.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_frame(fds[0], "{\"type\":\"shutdown\"}");
  write_frame(fds[0], std::string(1000, 'x'));
  ::close(fds[0]);
  std::string bytes;
  char c = 0;
  while (::read(fds[1], &c, 1) == 1) bytes.push_back(c);
  ::close(fds[1]);

  FrameReader reader;
  std::vector<std::string> frames;
  for (char byte : bytes) {
    reader.feed(&byte, 1);
    while (std::optional<std::string> payload = reader.next()) {
      frames.push_back(*payload);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "{\"type\":\"shutdown\"}");
  EXPECT_EQ(frames[1], std::string(1000, 'x'));
}

TEST(DistFramingTest, ReadFrameSeesCleanEofAndMidFrameEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_frame(fds[0], "{}");
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1]).value(), "{}");
  EXPECT_FALSE(read_frame(fds[1]).has_value());  // clean EOF
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // 8-byte v2 header promising an 8-byte payload (CRC irrelevant — EOF hits
  // first), but only 2 payload bytes arrive before the close.
  const char truncated[] = {8, 0, 0, 0, 0, 0, 0, 0, 'h', 'a'};
  ASSERT_EQ(::send(fds[0], truncated, sizeof truncated, 0),
            static_cast<ssize_t>(sizeof truncated));
  ::close(fds[0]);
  EXPECT_THROW(read_frame(fds[1]), WireError);
  ::close(fds[1]);
}

TEST(DistFramingTest, RejectsOversizedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t huge = kMaxFramePayload + 1;
  char header[kFrameHeaderBytes] = {static_cast<char>(huge & 0xFF),
                                    static_cast<char>((huge >> 8) & 0xFF),
                                    static_cast<char>((huge >> 16) & 0xFF),
                                    static_cast<char>((huge >> 24) & 0xFF),
                                    0, 0, 0, 0};  // dummy CRC
  ASSERT_EQ(::send(fds[0], header, sizeof header, 0),
            static_cast<ssize_t>(sizeof header));
  EXPECT_THROW(read_frame(fds[1]), WireError);
  FrameReader reader;
  reader.feed(header, sizeof header);
  EXPECT_THROW(reader.next(), WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(DistFramingTest, FrameCrcDetectsPayloadCorruption) {
  // A frame whose payload is corrupted in transit must surface as a
  // WireError, never as a silently different payload — the property the
  // chaos engine's `wire.tx corrupt` action relies on.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_frame(fds[0], "{\"type\":\"shutdown\"}");
  ::close(fds[0]);
  std::string bytes;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[1], buf, sizeof buf)) > 0) {
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[1]);
  ASSERT_GT(bytes.size(), kFrameHeaderBytes);

  bytes[kFrameHeaderBytes + 2] ^= 0x20;  // flip one payload byte
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  EXPECT_THROW(reader.next(), WireError);
}

TEST(DistFramingTest, ChunkedSyscallsStillDeliverWholeFrames) {
  // Force every send()/recv() down to one byte per syscall: the short-write
  // and short-read loops must reassemble the frame bit-for-bit.
  set_io_chunk_limit_for_test(1);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "{\"type\":\"shutdown\",\"pad\":\"pppp\"}";
  write_frame(fds[0], payload);
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1]).value(), payload);
  ::close(fds[1]);
  set_io_chunk_limit_for_test(0);
}

TEST(DistFramingTest, SendAndRecvSurviveEintrStorm) {
  // A no-SA_RESTART handler makes blocked send()/recv() actually return
  // EINTR; the storm below proves both loops retry instead of tearing the
  // frame (the worker heartbeat thread takes signals mid-send in practice).
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small_buffer = 4096;  // make the writer block mid-frame
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small_buffer,
               sizeof small_buffer);

  const std::string payload(1 << 20, 'z');
  std::atomic<bool> done{false};
  std::thread writer([&] {
    write_frame(fds[0], payload);
    done.store(true);
  });
  std::thread storm([&] {
    while (!done.load()) {
      ::pthread_kill(writer.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  FrameReader reader;
  char buf[65536];
  std::optional<std::string> got;
  while (!got) {
    ssize_t n = ::recv(fds[1], buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    reader.feed(buf, static_cast<std::size_t>(n));
    got = reader.next();
  }
  writer.join();
  storm.join();
  EXPECT_EQ(*got, payload);
  ::close(fds[0]);
  ::close(fds[1]);
  ::sigaction(SIGUSR1, &previous, nullptr);
}

// The broker serializes outbound frames per worker and workers serialize
// sends behind a mutex; this test is the TSan witness that concurrent
// write_frame calls on one socket stay frame-atomic when externally
// serialized, and that the reader reassembles an interleaved stream.
TEST(DistFramingTest, ConcurrentSerializedWritersKeepFramesIntact) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  constexpr int kThreads = 4;
  constexpr int kFramesPerThread = 200;
  std::mutex send_mutex;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kFramesPerThread; ++i) {
        std::string payload = "{\"thread\":" + std::to_string(t) +
                              ",\"i\":" + std::to_string(i) + "}";
        std::lock_guard<std::mutex> lock(send_mutex);
        write_frame(fds[0], payload);
      }
    });
  }
  std::vector<std::string> received;
  std::thread reader_thread([&] {
    while (std::optional<std::string> payload = read_frame(fds[1])) {
      received.push_back(*payload);
    }
  });
  for (std::thread& writer : writers) writer.join();
  ::close(fds[0]);
  reader_thread.join();
  ::close(fds[1]);
  ASSERT_EQ(received.size(),
            static_cast<std::size_t>(kThreads * kFramesPerThread));
  std::vector<int> next(kThreads, 0);
  for (const std::string& payload : received) {
    Json doc = Json::parse(payload);
    int thread = static_cast<int>(doc.at("thread").as_u64());
    EXPECT_EQ(doc.at("i").as_u64(), static_cast<std::uint64_t>(next[thread]));
    ++next[thread];
  }
}

TEST(DistProtocolTest, FrameBuildersRoundTripThroughParse) {
  Frame hello = parse_frame(make_worker_hello(3, 1, 4242));
  EXPECT_EQ(hello.kind, FrameKind::kHello);
  EXPECT_EQ(hello.body.at("worker").as_u64(), 3u);
  EXPECT_EQ(hello.body.at("generation").as_u64(), 1u);
  EXPECT_EQ(hello.body.at("pid").as_u64(), 4242u);
  EXPECT_EQ(hello.body.at("protocol").as_u64(), kProtocolVersion);

  Frame assign = parse_frame(make_assign({7, 8, 18446744073709551615ull}));
  EXPECT_EQ(assign.kind, FrameKind::kAssign);
  ASSERT_EQ(assign.body.at("seeds").items().size(), 3u);
  EXPECT_EQ(assign.body.at("seeds").items()[2].as_u64(),
            18446744073709551615ull);

  Frame heartbeat = parse_frame(make_heartbeat(5, 2));
  EXPECT_EQ(heartbeat.kind, FrameKind::kHeartbeat);
  EXPECT_EQ(heartbeat.body.at("queued").as_u64(), 5u);
  EXPECT_EQ(heartbeat.body.at("busy").as_u64(), 2u);

  EXPECT_EQ(parse_frame(make_shutdown()).kind, FrameKind::kShutdown);
  EXPECT_THROW(parse_frame("{\"type\":\"warp\"}"), WireError);
  EXPECT_THROW(parse_frame("{}"), WireError);
}

TEST(DistWireTest, CampaignConfigRoundTripsLosslessly) {
  campaign::CampaignConfig config;
  config.program_source = "void main(void) { }\n// \"quoted\"\n";
  config.spec_text = "prop p = x == 1\ncheck c: G p\n";
  config.approach = 1;
  config.mode = sctc::MonitorMode::kSynthesizedAutomaton;
  config.max_steps = 123456789012345ull;
  config.jobs = 3;
  config.witness_depth = 17;
  config.fault_plan_text = "fault bitflip led bit 3 at 100\n";
  config.fault_log_limit = 9;
  config.collect_metrics = true;
  config.capture_traces = true;
  config.seed_timeout_seconds = 2.5;
  config.seed_retries = 4;

  campaign::CampaignConfig copy = campaign::config_from_json(
      Json::parse(campaign::config_to_json(config)));
  EXPECT_EQ(copy.program_source, config.program_source);
  EXPECT_EQ(copy.spec_text, config.spec_text);
  EXPECT_EQ(copy.approach, config.approach);
  EXPECT_EQ(copy.mode, config.mode);
  EXPECT_EQ(copy.max_steps, config.max_steps);
  EXPECT_EQ(copy.jobs, config.jobs);
  EXPECT_EQ(copy.witness_depth, config.witness_depth);
  EXPECT_EQ(copy.fault_plan_text, config.fault_plan_text);
  EXPECT_EQ(copy.fault_log_limit, config.fault_log_limit);
  EXPECT_EQ(copy.collect_metrics, config.collect_metrics);
  EXPECT_EQ(copy.capture_traces, config.capture_traces);
  EXPECT_DOUBLE_EQ(copy.seed_timeout_seconds, config.seed_timeout_seconds);
  EXPECT_EQ(copy.seed_retries, config.seed_retries);
}

TEST(DistWireTest, EveryMonitorModeRoundTrips) {
  for (const sctc::MonitorMode mode :
       {sctc::MonitorMode::kProgression, sctc::MonitorMode::kSynthesizedAutomaton,
        sctc::MonitorMode::kCompiled, sctc::MonitorMode::kBoth}) {
    campaign::CampaignConfig config;
    config.mode = mode;
    const campaign::CampaignConfig copy = campaign::config_from_json(
        Json::parse(campaign::config_to_json(config)));
    EXPECT_EQ(copy.mode, mode) << sctc::monitor_mode_name(mode);
  }

  // An unknown mode string is a wire error, not a silent default: a broker
  // and a worker disagreeing on the monitor mode would verify different
  // things.
  std::string json = campaign::config_to_json(campaign::CampaignConfig{});
  const std::size_t at = json.find("\"compiled\"");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string("\"compiled\"").size(), "\"warp\"");
  EXPECT_THROW(campaign::config_from_json(Json::parse(json)), WireError);
}

TEST(DistWireTest, SeedResultRoundTripsLosslessly) {
  campaign::SeedResult result;
  result.seed = 18446744073709551610ull;
  result.properties.resize(2);
  result.properties[0].verdict = temporal::Verdict::kViolated;
  result.properties[0].decided_at_step = 42;
  result.properties[0].fault_class = sctc::FaultClass::kViolatedUnderFault;
  result.properties[1].verdict = temporal::Verdict::kValidated;
  result.properties[1].decided_at_step = 7;
  result.steps = 1000;
  result.statements = 2000;
  result.draws = 300;
  result.finished = true;
  result.error = "assertion \"x\" failed\nline 2";
  result.error_kind = "sut";
  result.attempts = 3;
  result.witness = "| step | led |\n";
  result.prop_true_counts = {10, 0, 18446744073709551615ull};
  result.injected_faults = 5;
  result.fault_log = "step 3: bitflip led bit 0\n";
  result.fault_plan_digest = "00ff00ff00ff00ff";
  result.metrics.counters["kernel.delta_cycles"] = 99;
  obs::HistogramData hist;
  hist.count = 2;
  hist.sum = 10;
  hist.min = 3;
  hist.max = 7;
  hist.buckets = {0, 0, 1, 1};
  result.metrics.histograms["checker.steps"] = hist;
  result.trace_jsonl = "{\"type\":\"seed_start\",\"seed\":1}\n";
  result.wall_ms = 12.75;

  campaign::SeedResult copy = campaign::seed_result_from_json(
      Json::parse(campaign::seed_result_to_json(result)));
  EXPECT_EQ(copy.seed, result.seed);
  ASSERT_EQ(copy.properties.size(), 2u);
  EXPECT_EQ(copy.properties[0].verdict, temporal::Verdict::kViolated);
  EXPECT_EQ(copy.properties[0].decided_at_step, 42u);
  EXPECT_EQ(copy.properties[0].fault_class,
            sctc::FaultClass::kViolatedUnderFault);
  EXPECT_EQ(copy.properties[1].verdict, temporal::Verdict::kValidated);
  EXPECT_EQ(copy.steps, result.steps);
  EXPECT_EQ(copy.statements, result.statements);
  EXPECT_EQ(copy.draws, result.draws);
  EXPECT_EQ(copy.finished, result.finished);
  EXPECT_EQ(copy.error, result.error);
  EXPECT_EQ(copy.error_kind, result.error_kind);
  EXPECT_EQ(copy.attempts, result.attempts);
  EXPECT_EQ(copy.witness, result.witness);
  EXPECT_EQ(copy.prop_true_counts, result.prop_true_counts);
  EXPECT_EQ(copy.injected_faults, result.injected_faults);
  EXPECT_EQ(copy.fault_log, result.fault_log);
  EXPECT_EQ(copy.fault_plan_digest, result.fault_plan_digest);
  EXPECT_EQ(copy.metrics.counters, result.metrics.counters);
  ASSERT_EQ(copy.metrics.histograms.count("checker.steps"), 1u);
  EXPECT_EQ(copy.metrics.histograms["checker.steps"].sum, 10u);
  EXPECT_EQ(copy.metrics.histograms["checker.steps"].buckets, hist.buckets);
  EXPECT_EQ(copy.trace_jsonl, result.trace_jsonl);
  EXPECT_DOUBLE_EQ(copy.wall_ms, result.wall_ms);
}

TEST(DistWireTest, MetricsSnapshotRoundTripRendersIdentically) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(18446744073709551615ull);
  registry.counter("b.count").add(1);
  registry.histogram("c.hist").record(5);
  registry.histogram("c.hist").record(100);
  registry.duration_histogram("d.wall_us").record(123);
  obs::MetricsSnapshot snapshot = registry.snapshot();

  obs::MetricsSnapshot copy = campaign::metrics_from_json(
      Json::parse(campaign::metrics_to_json(snapshot)));
  // Byte-identical rendering in both the full and the deterministic form is
  // the property the campaign merge relies on.
  EXPECT_EQ(copy.to_json(true), snapshot.to_json(true));
  EXPECT_EQ(copy.to_json(false), snapshot.to_json(false));
}

}  // namespace
}  // namespace esv::dist
