#include "cvsafe/eval/config_io.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace cvsafe::eval {
namespace {

/// ConfigFile::get_double for a value the simulation computes with: an
/// infinite or NaN value is rejected here, with its key named, instead of
/// reaching arithmetic that is undefined for it (a step count cast from
/// an infinite horizon, a NaN control period).
double finite_double(const util::ConfigFile& file, const std::string& key,
                     double dflt) {
  const double value = file.get_double(key, dflt);
  if (!std::isfinite(value)) {
    throw std::runtime_error("config: '" + key + "' must be finite");
  }
  return value;
}

}  // namespace

sim::LeftTurnSimConfig apply_config_file(sim::LeftTurnSimConfig base,
                                         const util::ConfigFile& file) {
  static const std::set<std::string> kKnown{
      "geometry.ego_front", "geometry.ego_back", "geometry.ego_start",
      "geometry.ego_target", "ego.v_min", "ego.v_max", "ego.a_min",
      "ego.a_max", "ego.v0", "c1.v_min", "c1.v_max", "c1.a_min", "c1.a_max",
      "c1.v_init_min", "c1.v_init_max", "sim.dt_c", "sim.horizon",
      "comm.period", "comm.delay", "comm.drop_prob", "comm.lost",
      "comm.burst", "comm.burst_bad_fraction", "comm.burst_mean_len",
      "sensor.period", "sensor.delta", "sensor.delta_p", "sensor.delta_v",
      "sensor.delta_a",
  };
  for (const auto& [key, value] : file.entries()) {
    if (kKnown.count(key) == 0) {
      throw std::runtime_error("config: unknown key '" + key + "'");
    }
    (void)value;
  }

  const auto read = [&](const std::string& key, double& field) {
    field = finite_double(file, key, field);
  };
  auto& g = base.geometry;
  read("geometry.ego_front", g.ego_front);
  read("geometry.ego_back", g.ego_back);
  read("geometry.ego_start", g.ego_start);
  read("geometry.ego_target", g.ego_target);
  // The oncoming conflict zone mirrors the ego zone (u = -p frame).
  g.c1_front = -g.ego_back;
  g.c1_back = -g.ego_front;
  if (!g.valid()) throw std::runtime_error("config: invalid geometry");

  read("ego.v_min", base.ego_limits.v_min);
  read("ego.v_max", base.ego_limits.v_max);
  read("ego.a_min", base.ego_limits.a_min);
  read("ego.a_max", base.ego_limits.a_max);
  read("c1.v_min", base.c1_limits.v_min);
  read("c1.v_max", base.c1_limits.v_max);
  read("c1.a_min", base.c1_limits.a_min);
  read("c1.a_max", base.c1_limits.a_max);
  if (!base.ego_limits.valid() || !base.c1_limits.valid()) {
    throw std::runtime_error("config: invalid actuation limits");
  }

  read("ego.v0", base.ego_v0);
  read("c1.v_init_min", base.workload.v1_init_min);
  read("c1.v_init_max", base.workload.v1_init_max);
  // The oncoming car starts at a speed drawn from [v_init_min,
  // v_init_max], and its acceleration profile clips against [v_min,
  // v_max] from there, which needs that speed inside the limits.
  const auto require_c1_speed = [&](const char* key, double v) {
    if (v < base.c1_limits.v_min || v > base.c1_limits.v_max) {
      throw std::runtime_error(std::string("config: '") + key +
                               "' must lie in [c1.v_min, c1.v_max]");
    }
  };
  require_c1_speed("c1.v_init_min", base.workload.v1_init_min);
  require_c1_speed("c1.v_init_max", base.workload.v1_init_max);
  if (base.workload.v1_init_min > base.workload.v1_init_max) {
    throw std::runtime_error(
        "config: 'c1.v_init_min' must not exceed 'c1.v_init_max'");
  }
  read("sim.dt_c", base.dt_c);
  read("sim.horizon", base.horizon);
  if (base.dt_c <= 0.0 || base.horizon <= base.dt_c) {
    throw std::runtime_error("config: invalid timing");
  }

  const double period = finite_double(file, "comm.period", base.comm.period);
  if (file.get_bool("comm.lost", false)) {
    base.comm = comm::CommConfig::messages_lost(period);
  } else if (file.get_bool("comm.burst", false)) {
    base.comm = comm::CommConfig::bursty(
        finite_double(file, "comm.burst_bad_fraction", 0.3),
        finite_double(file, "comm.burst_mean_len", 8.0),
        finite_double(file, "comm.delay", 0.0), period);
  } else {
    base.comm = comm::CommConfig::delayed(
        finite_double(file, "comm.drop_prob", base.comm.drop_prob),
        finite_double(file, "comm.delay", base.comm.delay), period);
  }

  const double delta = finite_double(file, "sensor.delta", -1.0);
  if (delta >= 0.0) {
    base.sensor = sensing::SensorConfig::uniform(
        delta, finite_double(file, "sensor.period", base.sensor.period));
  } else {
    read("sensor.period", base.sensor.period);
    read("sensor.delta_p", base.sensor.delta_p);
    read("sensor.delta_v", base.sensor.delta_v);
    read("sensor.delta_a", base.sensor.delta_a);
  }
  return base;
}

sim::LeftTurnSimConfig load_sim_config(const std::string& path) {
  return apply_config_file(sim::LeftTurnSimConfig::paper_defaults(),
                           util::ConfigFile::load(path));
}

std::string sim_config_to_ini(const sim::LeftTurnSimConfig& config) {
  std::ostringstream os;
  os.precision(17);
  const auto& g = config.geometry;
  os << "# cvsafe simulation configuration\n"
     << "[geometry]\n"
     << "ego_front = " << g.ego_front << "\n"
     << "ego_back = " << g.ego_back << "\n"
     << "ego_start = " << g.ego_start << "\n"
     << "ego_target = " << g.ego_target << "\n"
     << "[ego]\n"
     << "v_min = " << config.ego_limits.v_min << "\n"
     << "v_max = " << config.ego_limits.v_max << "\n"
     << "a_min = " << config.ego_limits.a_min << "\n"
     << "a_max = " << config.ego_limits.a_max << "\n"
     << "v0 = " << config.ego_v0 << "\n"
     << "[c1]\n"
     << "v_min = " << config.c1_limits.v_min << "\n"
     << "v_max = " << config.c1_limits.v_max << "\n"
     << "a_min = " << config.c1_limits.a_min << "\n"
     << "a_max = " << config.c1_limits.a_max << "\n"
     << "v_init_min = " << config.workload.v1_init_min << "\n"
     << "v_init_max = " << config.workload.v1_init_max << "\n"
     << "[sim]\n"
     << "dt_c = " << config.dt_c << "\n"
     << "horizon = " << config.horizon << "\n"
     << "[comm]\n"
     << "period = " << config.comm.period << "\n";
  if (config.comm.lost) {
    os << "lost = true\n";
  } else if (config.comm.burst) {
    const double denom = config.comm.p_good_to_bad + config.comm.p_bad_to_good;
    os << "burst = true\n"
       << "burst_bad_fraction = "
       << (denom > 0.0 ? config.comm.p_good_to_bad / denom : 0.0) << "\n"
       << "burst_mean_len = " << 1.0 / config.comm.p_bad_to_good << "\n"
       << "delay = " << config.comm.delay << "\n";
  } else {
    os << "drop_prob = " << config.comm.drop_prob << "\n"
       << "delay = " << config.comm.delay << "\n";
  }
  os << "[sensor]\n"
     << "period = " << config.sensor.period << "\n"
     << "delta_p = " << config.sensor.delta_p << "\n"
     << "delta_v = " << config.sensor.delta_v << "\n"
     << "delta_a = " << config.sensor.delta_a << "\n";
  return os.str();
}

bool save_sim_config(const sim::LeftTurnSimConfig& config,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << sim_config_to_ini(config);
  return static_cast<bool>(out);
}

}  // namespace cvsafe::eval
