#include "campaign/codec.hpp"

#include <sstream>

namespace esv::campaign {

using common::Json;
using common::json_string;

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

std::string double_text(double value) {
  // Timing-only fields; round-tripping to ~17 significant digits is enough.
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

std::string config_to_json(const CampaignConfig& config) {
  std::string out = "{";
  out += "\"program_source\":" + json_string(config.program_source);
  out += ",\"spec_text\":" + json_string(config.spec_text);
  out += ",\"approach\":";
  append_u64(out, static_cast<std::uint64_t>(config.approach));
  out += ",\"mode\":";
  out += json_string(sctc::monitor_mode_name(config.mode));
  out += ",\"max_steps\":";
  append_u64(out, config.max_steps);
  out += ",\"jobs\":";
  append_u64(out, config.jobs);
  out += ",\"witness_depth\":";
  append_u64(out, config.witness_depth);
  out += ",\"fault_plan_text\":" + json_string(config.fault_plan_text);
  out += ",\"fault_log_limit\":";
  append_u64(out, config.fault_log_limit);
  out += ",\"collect_metrics\":";
  out += config.collect_metrics ? "true" : "false";
  out += ",\"capture_traces\":";
  out += config.capture_traces ? "true" : "false";
  out += ",\"seed_timeout_seconds\":" + double_text(config.seed_timeout_seconds);
  out += ",\"seed_retries\":";
  append_u64(out, config.seed_retries);
  out += ",\"seed_mem_limit_mb\":";
  append_u64(out, config.seed_mem_limit_mb);
  // on_result and resume_results stay host-side by design: journaling and
  // resume are orchestrator concerns, workers only ever compute fresh seeds.
  out += "}";
  return out;
}

CampaignConfig config_from_json(const Json& json) {
  CampaignConfig config;
  config.program_source = json.at("program_source").as_string();
  config.spec_text = json.at("spec_text").as_string();
  config.approach = static_cast<int>(json.at("approach").as_u64());
  if (const auto mode = sctc::parse_monitor_mode(json.at("mode").as_string())) {
    config.mode = *mode;
  } else {
    throw common::DecodeError("config: unknown monitor mode \"" +
                              json.at("mode").as_string() + "\"");
  }
  config.max_steps = json.at("max_steps").as_u64();
  config.jobs = static_cast<unsigned>(json.u64_or("jobs", 1));
  config.witness_depth =
      static_cast<std::size_t>(json.u64_or("witness_depth", 0));
  config.fault_plan_text = json.string_or("fault_plan_text", "");
  config.fault_log_limit =
      static_cast<std::size_t>(json.u64_or("fault_log_limit", 64));
  config.collect_metrics = json.bool_or("collect_metrics", false);
  config.capture_traces = json.bool_or("capture_traces", false);
  config.seed_timeout_seconds = json.double_or("seed_timeout_seconds", 0.0);
  config.seed_retries = static_cast<unsigned>(json.u64_or("seed_retries", 0));
  config.seed_mem_limit_mb = json.u64_or("seed_mem_limit_mb", 0);
  return config;
}

std::string metrics_to_json(const obs::MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ',';
    out += json_string(name);
    out += ':';
    append_u64(out, value);
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!first) out += ',';
    out += json_string(name);
    out += ":{\"count\":";
    append_u64(out, hist.count);
    out += ",\"sum\":";
    append_u64(out, hist.sum);
    out += ",\"min\":";
    append_u64(out, hist.min);
    out += ",\"max\":";
    append_u64(out, hist.max);
    out += ",\"timing\":";
    out += hist.timing ? "true" : "false";
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i != 0) out += ',';
      append_u64(out, hist.buckets[i]);
    }
    out += "]}";
    first = false;
  }
  out += "}}";
  return out;
}

obs::MetricsSnapshot metrics_from_json(const Json& json) {
  obs::MetricsSnapshot snapshot;
  if (json.has("counters")) {
    for (const auto& [name, value] : json.at("counters").members()) {
      snapshot.counters[name] = value.as_u64();
    }
  }
  if (json.has("histograms")) {
    for (const auto& [name, value] : json.at("histograms").members()) {
      obs::HistogramData data;
      data.count = value.at("count").as_u64();
      data.sum = value.at("sum").as_u64();
      data.min = value.at("min").as_u64();
      data.max = value.at("max").as_u64();
      data.timing = value.bool_or("timing", false);
      for (const Json& bucket : value.at("buckets").items()) {
        data.buckets.push_back(bucket.as_u64());
      }
      snapshot.histograms[name] = std::move(data);
    }
  }
  return snapshot;
}

std::string seed_result_to_json(const SeedResult& result) {
  std::string out = "{\"seed\":";
  append_u64(out, result.seed);
  out += ",\"properties\":[";
  for (std::size_t i = 0; i < result.properties.size(); ++i) {
    const PropertyOutcome& p = result.properties[i];
    if (i != 0) out += ',';
    out += "{\"verdict\":";
    append_u64(out, static_cast<std::uint64_t>(p.verdict));
    out += ",\"decided_at_step\":";
    append_u64(out, p.decided_at_step);
    out += ",\"fault_class\":";
    append_u64(out, static_cast<std::uint64_t>(p.fault_class));
    out += "}";
  }
  out += "],\"steps\":";
  append_u64(out, result.steps);
  out += ",\"statements\":";
  append_u64(out, result.statements);
  out += ",\"draws\":";
  append_u64(out, result.draws);
  out += ",\"finished\":";
  out += result.finished ? "true" : "false";
  out += ",\"error\":" + json_string(result.error);
  out += ",\"error_kind\":" + json_string(result.error_kind);
  out += ",\"attempts\":";
  append_u64(out, result.attempts);
  out += ",\"witness\":" + json_string(result.witness);
  out += ",\"prop_true_counts\":[";
  for (std::size_t i = 0; i < result.prop_true_counts.size(); ++i) {
    if (i != 0) out += ',';
    append_u64(out, result.prop_true_counts[i]);
  }
  out += "],\"injected_faults\":";
  append_u64(out, result.injected_faults);
  out += ",\"fault_log\":" + json_string(result.fault_log);
  out += ",\"fault_plan_digest\":" + json_string(result.fault_plan_digest);
  out += ",\"metrics\":" + metrics_to_json(result.metrics);
  out += ",\"trace_jsonl\":" + json_string(result.trace_jsonl);
  out += ",\"wall_ms\":" + double_text(result.wall_ms);
  out += "}";
  return out;
}

SeedResult seed_result_from_json(const Json& json) {
  SeedResult result;
  result.seed = json.at("seed").as_u64();
  for (const Json& p : json.at("properties").items()) {
    PropertyOutcome outcome;
    outcome.verdict =
        static_cast<temporal::Verdict>(p.at("verdict").as_u64());
    outcome.decided_at_step = p.at("decided_at_step").as_u64();
    outcome.fault_class =
        static_cast<sctc::FaultClass>(p.at("fault_class").as_u64());
    result.properties.push_back(outcome);
  }
  result.steps = json.at("steps").as_u64();
  result.statements = json.at("statements").as_u64();
  result.draws = json.at("draws").as_u64();
  result.finished = json.at("finished").as_bool();
  result.error = json.at("error").as_string();
  result.error_kind = json.at("error_kind").as_string();
  result.attempts = static_cast<unsigned>(json.at("attempts").as_u64());
  result.witness = json.at("witness").as_string();
  for (const Json& count : json.at("prop_true_counts").items()) {
    result.prop_true_counts.push_back(count.as_u64());
  }
  result.injected_faults = json.at("injected_faults").as_u64();
  result.fault_log = json.at("fault_log").as_string();
  result.fault_plan_digest = json.string_or("fault_plan_digest", "");
  result.metrics = metrics_from_json(json.at("metrics"));
  result.trace_jsonl = json.at("trace_jsonl").as_string();
  result.wall_ms = json.double_or("wall_ms", 0.0);
  return result;
}

}  // namespace esv::campaign
