#include "cvsafe/util/config_file.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "cvsafe/eval/config_io.hpp"

namespace cvsafe::util {
namespace {

ConfigFile parse(const std::string& text) {
  std::istringstream is(text);
  return ConfigFile::parse(is);
}

TEST(ConfigFile, ParsesSectionsAndKeys) {
  const auto c = parse(
      "top = 1\n"
      "# a comment\n"
      "[comm]\n"
      "drop_prob = 0.4   # trailing comment\n"
      "delay=0.25\n"
      "\n"
      "[sensor]\n"
      "delta = 2.0\n");
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.get_string("top", ""), "1");
  EXPECT_EQ(c.get_double("comm.drop_prob", 0.0), 0.4);
  EXPECT_EQ(c.get_double("comm.delay", 0.0), 0.25);
  EXPECT_EQ(c.get_double("sensor.delta", 0.0), 2.0);
  EXPECT_FALSE(c.has("comm.missing"));
}

TEST(ConfigFile, TypedAccessorsAndDefaults) {
  const auto c = parse("a = 7\nb = yes\nc = off\nd = text\n");
  EXPECT_EQ(c.get_int("a", 0), 7);
  EXPECT_TRUE(c.get_bool("b", false));
  EXPECT_FALSE(c.get_bool("c", true));
  EXPECT_EQ(c.get_string("d", ""), "text");
  EXPECT_EQ(c.get_int("missing", 42), 42);
  EXPECT_EQ(c.get_double("missing", 1.5), 1.5);
}

TEST(ConfigFile, RejectsMalformedInput) {
  EXPECT_THROW(parse("novalue\n"), std::runtime_error);
  EXPECT_THROW(parse("[unclosed\n"), std::runtime_error);
  EXPECT_THROW(parse("= 3\n"), std::runtime_error);
  const auto c = parse("x = notanumber\n");
  EXPECT_THROW(c.get_double("x", 0.0), std::runtime_error);
  EXPECT_THROW(c.get_int("x", 0), std::runtime_error);
  EXPECT_THROW(c.get_bool("x", false), std::runtime_error);
}

TEST(ConfigFile, SetOverrides) {
  ConfigFile c;
  c.set("k", "3.5");
  EXPECT_EQ(c.get_double("k", 0.0), 3.5);
}

}  // namespace
}  // namespace cvsafe::util

namespace cvsafe::eval {
namespace {

util::ConfigFile parse(const std::string& text) {
  std::istringstream is(text);
  return util::ConfigFile::parse(is);
}

TEST(ConfigIo, AppliesCommAndSensor) {
  const auto cfg = apply_config_file(
      sim::LeftTurnSimConfig::paper_defaults(),
      parse("[comm]\ndrop_prob = 0.4\ndelay = 0.25\n[sensor]\n"
            "delta = 2.5\n"));
  EXPECT_EQ(cfg.comm.drop_prob, 0.4);
  EXPECT_EQ(cfg.comm.delay, 0.25);
  EXPECT_EQ(cfg.sensor.delta_p, 2.5);
  EXPECT_EQ(cfg.sensor.delta_v, 2.5);
}

TEST(ConfigIo, GeometryMirrorsOncomingZone) {
  const auto cfg = apply_config_file(
      sim::LeftTurnSimConfig::paper_defaults(),
      parse("[geometry]\nego_front = 6\nego_back = 18\nego_target = 25\n"));
  EXPECT_EQ(cfg.geometry.ego_front, 6.0);
  EXPECT_EQ(cfg.geometry.c1_front, -18.0);
  EXPECT_EQ(cfg.geometry.c1_back, -6.0);
}

TEST(ConfigIo, LostAndBurstChannels) {
  const auto lost = apply_config_file(sim::LeftTurnSimConfig::paper_defaults(),
                                      parse("[comm]\nlost = true\n"));
  EXPECT_TRUE(lost.comm.lost);
  const auto burst = apply_config_file(
      sim::LeftTurnSimConfig::paper_defaults(),
      parse("[comm]\nburst = true\nburst_bad_fraction = 0.25\n"
            "burst_mean_len = 5\n"));
  EXPECT_TRUE(burst.comm.burst);
  EXPECT_NEAR(burst.comm.stationary_drop_prob(), 0.25, 1e-9);
}

TEST(ConfigIo, RejectsUnknownKeysAndInvalidValues) {
  EXPECT_THROW(apply_config_file(sim::LeftTurnSimConfig::paper_defaults(),
                                 parse("[comm]\ndorp_prob = 0.4\n")),
               std::runtime_error);
  EXPECT_THROW(apply_config_file(sim::LeftTurnSimConfig::paper_defaults(),
                                 parse("[sim]\ndt_c = -1\n")),
               std::runtime_error);
  EXPECT_THROW(apply_config_file(
                   sim::LeftTurnSimConfig::paper_defaults(),
                   parse("[geometry]\nego_front = 20\nego_back = 10\n")),
               std::runtime_error);
}

TEST(ConfigIo, SaveLoadRoundTrip) {
  sim::LeftTurnSimConfig original = sim::LeftTurnSimConfig::paper_defaults();
  original.comm = comm::CommConfig::delayed(0.35, 0.2);
  original.sensor = sensing::SensorConfig::uniform(2.25, 0.2);
  original.ego_v0 = 9.5;
  original.geometry.ego_front = 4.0;
  original.geometry.c1_front = -original.geometry.ego_back;
  original.geometry.c1_back = -original.geometry.ego_front;

  std::istringstream ini(sim_config_to_ini(original));
  const sim::LeftTurnSimConfig loaded = apply_config_file(
      sim::LeftTurnSimConfig::paper_defaults(), util::ConfigFile::parse(ini));
  EXPECT_EQ(loaded.comm.drop_prob, original.comm.drop_prob);
  EXPECT_EQ(loaded.comm.delay, original.comm.delay);
  EXPECT_EQ(loaded.sensor.delta_p, original.sensor.delta_p);
  EXPECT_EQ(loaded.sensor.period, original.sensor.period);
  EXPECT_EQ(loaded.ego_v0, original.ego_v0);
  EXPECT_EQ(loaded.geometry.ego_front, original.geometry.ego_front);
  EXPECT_EQ(loaded.geometry.c1_back, original.geometry.c1_back);
}

TEST(ConfigIo, SaveLoadRoundTripBurstAndLost) {
  sim::LeftTurnSimConfig burst = sim::LeftTurnSimConfig::paper_defaults();
  burst.comm = comm::CommConfig::bursty(0.3, 6.0, 0.25);
  std::istringstream b(sim_config_to_ini(burst));
  const sim::LeftTurnSimConfig burst2 = apply_config_file(
      sim::LeftTurnSimConfig::paper_defaults(), util::ConfigFile::parse(b));
  EXPECT_TRUE(burst2.comm.burst);
  EXPECT_NEAR(burst2.comm.stationary_drop_prob(),
              burst.comm.stationary_drop_prob(), 1e-9);

  sim::LeftTurnSimConfig lost = sim::LeftTurnSimConfig::paper_defaults();
  lost.comm = comm::CommConfig::messages_lost();
  std::istringstream l(sim_config_to_ini(lost));
  const sim::LeftTurnSimConfig lost2 = apply_config_file(
      sim::LeftTurnSimConfig::paper_defaults(), util::ConfigFile::parse(l));
  EXPECT_TRUE(lost2.comm.lost);
}

TEST(ConfigIo, LoadedConfigRunsSafely) {
  const auto cfg = apply_config_file(
      sim::LeftTurnSimConfig::paper_defaults(),
      parse("[comm]\ndrop_prob = 0.5\ndelay = 0.25\n[ego]\nv0 = 10\n"));
  sim::AgentBlueprint bp;
  bp.scenario = cfg.make_scenario();
  bp.sensor = cfg.sensor;
  bp.config = sim::AgentConfig::ultimate_compound();
  bp.config.use_expert_planner = true;
  bp.config.expert_params = planners::ExpertParams::aggressive();
  bp.name = "config-io";
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    EXPECT_FALSE(sim::run_left_turn_simulation(cfg, bp, seed).collided);
  }
}

}  // namespace
}  // namespace cvsafe::eval
