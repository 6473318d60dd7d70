#include "cvsafe/eval/config_io.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace cvsafe::eval {

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

  auto& g = base.geometry;
  g.ego_front = file.get_double("geometry.ego_front", g.ego_front);
  g.ego_back = file.get_double("geometry.ego_back", g.ego_back);
  g.ego_start = file.get_double("geometry.ego_start", g.ego_start);
  g.ego_target = file.get_double("geometry.ego_target", g.ego_target);
  // The oncoming conflict zone mirrors the ego zone (u = -p frame).
  g.c1_front = -g.ego_back;
  g.c1_back = -g.ego_front;
  if (!g.valid()) throw std::runtime_error("config: invalid geometry");

  base.ego_limits.v_min = file.get_double("ego.v_min", base.ego_limits.v_min);
  base.ego_limits.v_max = file.get_double("ego.v_max", base.ego_limits.v_max);
  base.ego_limits.a_min = file.get_double("ego.a_min", base.ego_limits.a_min);
  base.ego_limits.a_max = file.get_double("ego.a_max", base.ego_limits.a_max);
  base.c1_limits.v_min = file.get_double("c1.v_min", base.c1_limits.v_min);
  base.c1_limits.v_max = file.get_double("c1.v_max", base.c1_limits.v_max);
  base.c1_limits.a_min = file.get_double("c1.a_min", base.c1_limits.a_min);
  base.c1_limits.a_max = file.get_double("c1.a_max", base.c1_limits.a_max);
  if (!base.ego_limits.valid() || !base.c1_limits.valid()) {
    throw std::runtime_error("config: invalid actuation limits");
  }

  base.ego_v0 = file.get_double("ego.v0", base.ego_v0);
  base.workload.v1_init_min =
      file.get_double("c1.v_init_min", base.workload.v1_init_min);
  base.workload.v1_init_max =
      file.get_double("c1.v_init_max", base.workload.v1_init_max);
  base.dt_c = file.get_double("sim.dt_c", base.dt_c);
  base.horizon = file.get_double("sim.horizon", base.horizon);
  if (base.dt_c <= 0.0 || base.horizon <= base.dt_c) {
    throw std::runtime_error("config: invalid timing");
  }

  const double period = file.get_double("comm.period", base.comm.period);
  if (file.get_bool("comm.lost", false)) {
    base.comm = comm::CommConfig::messages_lost(period);
  } else if (file.get_bool("comm.burst", false)) {
    base.comm = comm::CommConfig::bursty(
        file.get_double("comm.burst_bad_fraction", 0.3),
        file.get_double("comm.burst_mean_len", 8.0),
        file.get_double("comm.delay", 0.0), period);
  } else {
    base.comm = comm::CommConfig::delayed(
        file.get_double("comm.drop_prob", base.comm.drop_prob),
        file.get_double("comm.delay", base.comm.delay), period);
  }

  const double delta = file.get_double("sensor.delta", -1.0);
  if (delta >= 0.0) {
    base.sensor = sensing::SensorConfig::uniform(
        delta, file.get_double("sensor.period", base.sensor.period));
  } else {
    base.sensor.period = file.get_double("sensor.period", base.sensor.period);
    base.sensor.delta_p = file.get_double("sensor.delta_p",
                                          base.sensor.delta_p);
    base.sensor.delta_v = file.get_double("sensor.delta_v",
                                          base.sensor.delta_v);
    base.sensor.delta_a = file.get_double("sensor.delta_a",
                                          base.sensor.delta_a);
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
