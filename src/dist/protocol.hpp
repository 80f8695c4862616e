// Frame vocabulary of the broker <-> worker protocol (docs/DISTRIBUTED.md).
//
// Every frame is one length-prefixed JSON object with a "type" member. Six
// frame kinds exist:
//
//   HELLO      worker -> broker   {"type":"hello","worker":N,"generation":N,
//                                  "pid":N,"protocol":1}
//              broker -> worker   {"type":"hello","protocol":1,
//                                  "config":{...}}  (campaign config reply)
//   ASSIGN     broker -> worker   {"type":"assign","seeds":[S,...]}
//   RESULT     worker -> broker   {"type":"result","result":{SeedResult}}
//   METRICS    worker -> broker   {"type":"metrics","metrics":{snapshot}}
//   HEARTBEAT  worker -> broker   {"type":"heartbeat","queued":N,"busy":N}
//   SHUTDOWN   broker -> worker   {"type":"shutdown"}
//
// The protocol is strictly broker-driven: workers never originate work, and
// a worker that receives SHUTDOWN replies with one final METRICS frame and
// exits. Unknown frame types are a WireError (stream corruption), not an
// extension point — bump kProtocolVersion instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/codec.hpp"
#include "dist/wire.hpp"

namespace esv::dist {

// Version 2 added the payload CRC-32 to the frame header (wire.hpp).
constexpr std::uint64_t kProtocolVersion = 2;

enum class FrameKind {
  kHello,
  kAssign,
  kResult,
  kMetrics,
  kHeartbeat,
  kShutdown,
};

struct Frame {
  FrameKind kind = FrameKind::kHello;
  Json body;
};

/// Parses one frame payload; throws WireError on malformed JSON, a missing
/// "type", or an unknown frame kind.
Frame parse_frame(std::string_view payload);

std::string make_worker_hello(unsigned worker, unsigned generation, int pid);
std::string make_broker_hello(const campaign::CampaignConfig& config);
std::string make_assign(const std::vector<std::uint64_t>& seeds);
std::string make_result(const campaign::SeedResult& result);
std::string make_metrics(const obs::MetricsSnapshot& snapshot);
std::string make_heartbeat(std::uint64_t queued, std::uint64_t busy);
std::string make_shutdown();

}  // namespace esv::dist
