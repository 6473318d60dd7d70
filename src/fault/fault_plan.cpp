#include "cvsafe/fault/fault_plan.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "cvsafe/util/config_file.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/csv.hpp"

namespace cvsafe::fault {
namespace {

// Written so NaN (failing every ordered comparison) violates the check.
// ([[maybe_unused]]: contract-free builds compile the checks out.)
void expect_prob([[maybe_unused]] double p) {
  CVSAFE_EXPECTS(p >= 0.0 && p <= 1.0,
                 "fault probability must lie in [0,1]");
}

void expect_magnitude([[maybe_unused]] double m) {
  CVSAFE_EXPECTS(m >= 0.0 && m < 1e9,
                 "fault magnitude must be non-negative and finite");
}

void validate_windows(const std::vector<FaultWindow>& windows) {
  for ([[maybe_unused]] const auto& w : windows) {
    CVSAFE_EXPECTS(w.begin >= 0.0 && w.end >= w.begin && w.end < 1e9,
                   "fault window must satisfy 0 <= begin <= end, finite");
  }
}

/// Serializes windows as the "b0:e0,b1:e1,..." form parse_windows reads.
std::string format_windows(const std::vector<FaultWindow>& windows) {
  std::string out;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) out += ',';
    out += util::format_exact(windows[i].begin);
    out += ':';
    out += util::format_exact(windows[i].end);
  }
  return out;
}

/// Parses "b0:e0,b1:e1,..." into windows.
std::vector<FaultWindow> parse_windows(const std::string& text) {
  std::vector<FaultWindow> out;
  std::istringstream is(text);
  std::string pair;
  while (std::getline(is, pair, ',')) {
    const auto colon = pair.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("fault window must be begin:end, got '" +
                               pair + "'");
    }
    out.push_back(FaultWindow{std::stod(pair.substr(0, colon)),
                              std::stod(pair.substr(colon + 1))});
  }
  return out;
}

}  // namespace

bool ChannelFaultModel::any() const {
  return delay_jitter_max > 0.0 || reorder_prob > 0.0 ||
         duplicate_prob > 0.0 || corrupt_prob > 0.0 ||
         stale_spoof_prob > 0.0 || !blackouts.empty();
}

bool SensorFaultModel::any() const {
  // cvsafe-lint: allow(float-compare) exact-zero means "feature disabled"
  return dropout_prob > 0.0 || bias_drift_rate != 0.0 || !stuck.empty();
}

void FaultPlan::validate() const {
  expect_magnitude(channel.delay_jitter_max);
  expect_prob(channel.reorder_prob);
  CVSAFE_EXPECTS(channel.reorder_delay_min >= 0.0 &&
                     channel.reorder_delay_max >= channel.reorder_delay_min &&
                     channel.reorder_delay_max < 1e9,
                 "reorder delay range must be ordered, non-negative, finite");
  expect_prob(channel.duplicate_prob);
  expect_magnitude(channel.duplicate_lag_max);
  expect_prob(channel.corrupt_prob);
  expect_magnitude(channel.corrupt_delta_p);
  expect_magnitude(channel.corrupt_delta_v);
  expect_magnitude(channel.corrupt_delta_a);
  expect_prob(channel.stale_spoof_prob);
  expect_magnitude(channel.stale_spoof_max);
  validate_windows(channel.blackouts);
  expect_prob(sensor.dropout_prob);
  CVSAFE_EXPECTS(sensor.bias_drift_rate > -1e9 &&
                     sensor.bias_drift_rate < 1e9,
                 "sensor bias drift rate must be finite");
  validate_windows(sensor.stuck);
}

FaultPlan FaultPlan::none() { return FaultPlan{}; }

FaultPlan FaultPlan::delay_jitter() {
  FaultPlan p;
  p.name = "delay-jitter";
  p.channel.delay_jitter_max = 0.3;
  return p;
}

FaultPlan FaultPlan::reorder_duplicate() {
  FaultPlan p;
  p.name = "reorder-duplicate";
  p.channel.reorder_prob = 0.3;
  p.channel.reorder_delay_min = 0.15;
  p.channel.reorder_delay_max = 0.35;
  p.channel.duplicate_prob = 0.3;
  p.channel.duplicate_lag_max = 0.15;
  return p;
}

FaultPlan FaultPlan::corruption() {
  FaultPlan p;
  p.name = "corruption";
  p.channel.corrupt_prob = 0.2;
  p.channel.corrupt_delta_p = 2.0;
  p.channel.corrupt_delta_v = 1.5;
  p.channel.corrupt_delta_a = 1.0;
  p.channel.stale_spoof_prob = 0.1;
  p.channel.stale_spoof_max = 0.4;
  return p;
}

FaultPlan FaultPlan::blackout() {
  FaultPlan p;
  p.name = "blackout";
  p.channel.blackouts = {{2.0, 4.0}, {8.0, 10.0}, {14.0, 16.0}};
  return p;
}

FaultPlan FaultPlan::sensor_freeze() {
  FaultPlan p;
  p.name = "sensor-freeze";
  p.sensor.dropout_prob = 0.2;
  p.sensor.bias_drift_rate = 0.02;
  p.sensor.stuck = {{3.0, 5.0}, {10.0, 12.0}};
  return p;
}

std::optional<FaultPlan> FaultPlan::preset(std::string_view name) {
  if (name == "none") return none();
  if (name == "delay-jitter") return delay_jitter();
  if (name == "reorder-duplicate") return reorder_duplicate();
  if (name == "corruption") return corruption();
  if (name == "blackout") return blackout();
  if (name == "sensor-freeze") return sensor_freeze();
  return std::nullopt;
}

std::vector<std::string> FaultPlan::preset_names() {
  return {"none",     "delay-jitter", "reorder-duplicate",
          "corruption", "blackout",   "sensor-freeze"};
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  const util::ConfigFile cfg = util::ConfigFile::load(path);
  // Reject unknown keys up front: a typo'd knob must not silently run
  // the unfaulted baseline.
  static const std::set<std::string> kKnownKeys = {
      "name",
      "seed",
      "channel.delay_jitter_max",
      "channel.reorder_prob",
      "channel.reorder_delay_min",
      "channel.reorder_delay_max",
      "channel.duplicate_prob",
      "channel.duplicate_lag_max",
      "channel.corrupt_prob",
      "channel.corrupt_delta_p",
      "channel.corrupt_delta_v",
      "channel.corrupt_delta_a",
      "channel.stale_spoof_prob",
      "channel.stale_spoof_max",
      "channel.blackouts",
      "sensor.dropout_prob",
      "sensor.bias_drift_rate",
      "sensor.stuck",
  };
  for (const auto& [key, value] : cfg.entries()) {
    if (kKnownKeys.count(key) == 0) {
      throw std::runtime_error("unknown fault-plan key '" + key + "' in " +
                               path);
    }
  }
  FaultPlan p;
  p.name = cfg.get_string("name", "file");
  p.seed = static_cast<std::uint64_t>(
      cfg.get_int("seed", static_cast<std::int64_t>(p.seed)));
  auto& ch = p.channel;
  ch.delay_jitter_max = cfg.get_double("channel.delay_jitter_max", 0.0);
  ch.reorder_prob = cfg.get_double("channel.reorder_prob", 0.0);
  ch.reorder_delay_min =
      cfg.get_double("channel.reorder_delay_min", ch.reorder_delay_min);
  ch.reorder_delay_max =
      cfg.get_double("channel.reorder_delay_max", ch.reorder_delay_max);
  ch.duplicate_prob = cfg.get_double("channel.duplicate_prob", 0.0);
  ch.duplicate_lag_max =
      cfg.get_double("channel.duplicate_lag_max", ch.duplicate_lag_max);
  ch.corrupt_prob = cfg.get_double("channel.corrupt_prob", 0.0);
  ch.corrupt_delta_p = cfg.get_double("channel.corrupt_delta_p", 0.0);
  ch.corrupt_delta_v = cfg.get_double("channel.corrupt_delta_v", 0.0);
  ch.corrupt_delta_a = cfg.get_double("channel.corrupt_delta_a", 0.0);
  ch.stale_spoof_prob = cfg.get_double("channel.stale_spoof_prob", 0.0);
  ch.stale_spoof_max = cfg.get_double("channel.stale_spoof_max", 0.0);
  if (const auto w = cfg.get("channel.blackouts")) {
    ch.blackouts = parse_windows(*w);
  }
  auto& se = p.sensor;
  se.dropout_prob = cfg.get_double("sensor.dropout_prob", 0.0);
  se.bias_drift_rate = cfg.get_double("sensor.bias_drift_rate", 0.0);
  if (const auto w = cfg.get("sensor.stuck")) se.stuck = parse_windows(*w);
  p.validate();
  return p;
}

std::string FaultPlan::to_ini() const {
  validate();
  std::string out;
  out += "# cvsafe fault plan (FaultPlan::to_ini); replay with --faults FILE\n";
  out += "name = " + name + "\n";
  out += "seed = " + std::to_string(seed) + "\n";
  // One "key = value" line, the value at %.17g.
  const auto put = [&out](const char* key, double value) {
    out += key;
    out += " = " + util::format_exact(value) + "\n";
  };
  out += "\n[channel]\n";
  put("delay_jitter_max", channel.delay_jitter_max);
  put("reorder_prob", channel.reorder_prob);
  put("reorder_delay_min", channel.reorder_delay_min);
  put("reorder_delay_max", channel.reorder_delay_max);
  put("duplicate_prob", channel.duplicate_prob);
  put("duplicate_lag_max", channel.duplicate_lag_max);
  put("corrupt_prob", channel.corrupt_prob);
  put("corrupt_delta_p", channel.corrupt_delta_p);
  put("corrupt_delta_v", channel.corrupt_delta_v);
  put("corrupt_delta_a", channel.corrupt_delta_a);
  put("stale_spoof_prob", channel.stale_spoof_prob);
  put("stale_spoof_max", channel.stale_spoof_max);
  if (!channel.blackouts.empty()) {
    out += "blackouts = " + format_windows(channel.blackouts) + "\n";
  }
  out += "\n[sensor]\n";
  put("dropout_prob", sensor.dropout_prob);
  put("bias_drift_rate", sensor.bias_drift_rate);
  if (!sensor.stuck.empty()) {
    out += "stuck = " + format_windows(sensor.stuck) + "\n";
  }
  return out;
}

void FaultPlan::to_file(const std::string& path) const {
  const std::string text = to_ini();
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    throw std::runtime_error("cannot write fault plan to " + path);
  }
  out << text;
  out.flush();
  if (!out.good()) {
    throw std::runtime_error("short write saving fault plan to " + path);
  }
}

}  // namespace cvsafe::fault
