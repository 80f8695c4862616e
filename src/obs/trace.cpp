#include "obs/trace.hpp"

#include <sstream>

#include "common/json.hpp"

namespace esv::obs {

using common::json_string;

void TraceWriter::append(std::string_view text) {
  buffer_ += text;
  buffer_ += '\n';
  ++events_;
}

void TraceWriter::seed_start(std::uint64_t seed) {
  std::ostringstream line;
  line << "{\"type\":\"seed_start\",\"seed\":" << seed << "}";
  append(line.str());
}

void TraceWriter::prop_change(std::uint64_t step, std::string_view prop,
                              bool value) {
  std::ostringstream line;
  line << "{\"type\":\"prop_change\",\"step\":" << step
       << ",\"prop\":" << json_string(prop) << ",\"value\":" << (value ? 1 : 0)
       << "}";
  append(line.str());
}

void TraceWriter::monitor_transition(std::uint64_t step,
                                     std::string_view property,
                                     std::string_view from,
                                     std::string_view to) {
  std::ostringstream line;
  line << "{\"type\":\"monitor_transition\",\"step\":" << step
       << ",\"property\":" << json_string(property)
       << ",\"from\":" << json_string(from) << ",\"to\":" << json_string(to)
       << "}";
  append(line.str());
}

void TraceWriter::automaton_state(std::uint64_t step,
                                  std::string_view property,
                                  std::uint32_t state) {
  std::ostringstream line;
  line << "{\"type\":\"automaton_state\",\"step\":" << step
       << ",\"property\":" << json_string(property)
       << ",\"state\":" << state << "}";
  append(line.str());
}

void TraceWriter::monitor_divergence(std::uint64_t step,
                                     std::string_view property,
                                     std::string_view detail) {
  std::ostringstream line;
  line << "{\"type\":\"monitor_divergence\",\"step\":" << step
       << ",\"property\":" << json_string(property)
       << ",\"detail\":" << json_string(detail) << "}";
  append(line.str());
}

void TraceWriter::fault(std::uint64_t step, std::string_view text) {
  std::ostringstream line;
  line << "{\"type\":\"fault\",\"step\":" << step
       << ",\"text\":" << json_string(text) << "}";
  append(line.str());
}

void TraceWriter::chaos_injected(std::string_view point,
                                 std::string_view action, std::uint64_t hit,
                                 std::string_view detail) {
  std::ostringstream line;
  line << "{\"type\":\"chaos_injected\",\"point\":" << json_string(point)
       << ",\"action\":" << json_string(action) << ",\"hit\":" << hit;
  if (!detail.empty()) {
    line << ",\"detail\":" << json_string(detail);
  }
  line << "}";
  append(line.str());
}

void TraceWriter::handshake(std::uint64_t steps) {
  std::ostringstream line;
  line << "{\"type\":\"handshake\",\"steps\":" << steps << "}";
  append(line.str());
}

void TraceWriter::worker_event(std::string_view event, unsigned worker,
                               unsigned generation, std::string_view detail) {
  std::ostringstream line;
  line << "{\"type\":\"worker\",\"event\":" << json_string(event)
       << ",\"worker\":" << worker << ",\"generation\":" << generation;
  if (!detail.empty()) {
    line << ",\"detail\":" << json_string(detail);
  }
  line << "}";
  append(line.str());
}

void TraceWriter::campaign_event(std::string_view event,
                                 std::string_view detail) {
  std::ostringstream line;
  line << "{\"type\":\"campaign\",\"event\":" << json_string(event);
  if (!detail.empty()) {
    line << ",\"detail\":" << json_string(detail);
  }
  line << "}";
  append(line.str());
}

void TraceWriter::seed_end(std::uint64_t seed, std::uint64_t steps,
                           std::uint64_t validated, std::uint64_t violated,
                           std::uint64_t pending) {
  std::ostringstream line;
  line << "{\"type\":\"seed_end\",\"seed\":" << seed << ",\"steps\":" << steps
       << ",\"validated\":" << validated << ",\"violated\":" << violated
       << ",\"pending\":" << pending << "}";
  append(line.str());
}

}  // namespace esv::obs
