#include "dist/protocol.hpp"

namespace esv::dist {

Frame parse_frame(std::string_view payload) {
  Frame frame;
  frame.body = Json::parse(payload);
  const std::string& type = frame.body.at("type").as_string();
  if (type == "hello") {
    frame.kind = FrameKind::kHello;
  } else if (type == "assign") {
    frame.kind = FrameKind::kAssign;
  } else if (type == "result") {
    frame.kind = FrameKind::kResult;
  } else if (type == "metrics") {
    frame.kind = FrameKind::kMetrics;
  } else if (type == "heartbeat") {
    frame.kind = FrameKind::kHeartbeat;
  } else if (type == "shutdown") {
    frame.kind = FrameKind::kShutdown;
  } else {
    throw WireError("protocol: unknown frame type \"" + type + "\"");
  }
  return frame;
}

std::string make_worker_hello(unsigned worker, unsigned generation, int pid) {
  std::string out = "{\"type\":\"hello\",\"worker\":";
  out += std::to_string(worker);
  out += ",\"generation\":";
  out += std::to_string(generation);
  out += ",\"pid\":";
  out += std::to_string(pid);
  out += ",\"protocol\":";
  out += std::to_string(kProtocolVersion);
  out += "}";
  return out;
}

std::string make_broker_hello(const campaign::CampaignConfig& config) {
  std::string out = "{\"type\":\"hello\",\"protocol\":";
  out += std::to_string(kProtocolVersion);
  out += ",\"config\":";
  out += campaign::config_to_json(config);
  out += "}";
  return out;
}

std::string make_assign(const std::vector<std::uint64_t>& seeds) {
  std::string out = "{\"type\":\"assign\",\"seeds\":[";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(seeds[i]);
  }
  out += "]}";
  return out;
}

std::string make_result(const campaign::SeedResult& result) {
  return "{\"type\":\"result\",\"result\":" +
         campaign::seed_result_to_json(result) + "}";
}

std::string make_metrics(const obs::MetricsSnapshot& snapshot) {
  return "{\"type\":\"metrics\",\"metrics\":" +
         campaign::metrics_to_json(snapshot) + "}";
}

std::string make_heartbeat(std::uint64_t queued, std::uint64_t busy) {
  return "{\"type\":\"heartbeat\",\"queued\":" + std::to_string(queued) +
         ",\"busy\":" + std::to_string(busy) + "}";
}

std::string make_shutdown() { return "{\"type\":\"shutdown\"}"; }

}  // namespace esv::dist
