#include "serve/protocol.hpp"

namespace esv::serve {

FrameKind frame_kind(const dist::Json& json) {
  const std::string type = json.string_or("type", "");
  if (type == "submit") return FrameKind::kSubmit;
  if (type == "status") return FrameKind::kStatus;
  if (type == "cancel") return FrameKind::kCancel;
  if (type == "shutdown") return FrameKind::kShutdown;
  if (type == "accepted") return FrameKind::kAccepted;
  if (type == "rejected") return FrameKind::kRejected;
  if (type == "progress") return FrameKind::kProgress;
  if (type == "report") return FrameKind::kReport;
  if (type == "cancelled") return FrameKind::kCancelled;
  if (type == "status_reply") return FrameKind::kStatusReply;
  if (type == "shutdown_ack") return FrameKind::kShutdownAck;
  throw dist::WireError("serve: unknown frame type '" + type + "'");
}

std::string campaign_shape_json(const campaign::CampaignConfig& config) {
  std::string out = ",\"seed_lo\":" + std::to_string(config.seed_lo);
  out += ",\"seed_hi\":" + std::to_string(config.seed_hi);
  out += ",\"workers\":" + std::to_string(config.workers);
  return out;
}

void apply_campaign_shape(const dist::Json& json,
                          campaign::CampaignConfig& config) {
  config.seed_lo = json.u64_or("seed_lo", 1);
  config.seed_hi = json.u64_or("seed_hi", config.seed_lo);
  config.workers = static_cast<unsigned>(json.u64_or("workers", 0));
  if (config.seed_lo < 1 || config.seed_hi < config.seed_lo) {
    throw dist::WireError("serve: bad seed range " +
                          std::to_string(config.seed_lo) + ".." +
                          std::to_string(config.seed_hi));
  }
}

std::string make_submit(const std::string& tenant,
                        const campaign::CampaignConfig& config) {
  std::string out = "{\"type\":\"submit\",\"v\":";
  out += std::to_string(kServeProtocolVersion);
  out += ",\"tenant\":" + dist::json_string(tenant);
  out += campaign_shape_json(config);
  out += ",\"config\":" + campaign::config_to_json(config);
  out += "}";
  return out;
}

std::string make_status_request() { return "{\"type\":\"status\"}"; }

std::string make_cancel(std::uint64_t job) {
  return "{\"type\":\"cancel\",\"job\":" + std::to_string(job) + "}";
}

std::string make_shutdown_request() { return "{\"type\":\"shutdown\"}"; }

std::string make_accepted(std::uint64_t job, const std::string& key,
                          bool cached, std::uint64_t queue_depth) {
  std::string out = "{\"type\":\"accepted\",\"job\":" + std::to_string(job);
  out += ",\"key\":" + dist::json_string(key);
  out += cached ? ",\"cached\":true" : ",\"cached\":false";
  out += ",\"queue_depth\":" + std::to_string(queue_depth);
  out += "}";
  return out;
}

std::string make_rejected(const std::string& reason,
                          std::uint64_t queue_depth) {
  std::string out = "{\"type\":\"rejected\",\"reason\":";
  out += dist::json_string(reason);
  out += ",\"queue_depth\":" + std::to_string(queue_depth);
  out += "}";
  return out;
}

std::string make_progress(std::uint64_t job, std::uint64_t done,
                          std::uint64_t total) {
  std::string out = "{\"type\":\"progress\",\"job\":" + std::to_string(job);
  out += ",\"done\":" + std::to_string(done);
  out += ",\"total\":" + std::to_string(total);
  out += "}";
  return out;
}

std::string make_report_frame(std::uint64_t job, bool cached, int exit_code,
                              const std::string& report_json, bool durable) {
  std::string out = "{\"type\":\"report\",\"job\":" + std::to_string(job);
  out += cached ? ",\"cached\":true" : ",\"cached\":false";
  out += ",\"exit\":" + std::to_string(exit_code);
  // Present only on the degraded path, so the frame bytes of a healthy
  // daemon are unchanged across versions.
  if (!durable) out += ",\"durable\":false";
  out += ",\"report\":" + dist::json_string(report_json);
  out += "}";
  return out;
}

std::string make_cancelled(std::uint64_t job) {
  return "{\"type\":\"cancelled\",\"job\":" + std::to_string(job) + "}";
}

std::string make_shutdown_ack() { return "{\"type\":\"shutdown_ack\"}"; }

}  // namespace esv::serve
