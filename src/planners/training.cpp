#include "cvsafe/planners/training.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/util/config.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace cvsafe::planners {

const char* planner_style_name(PlannerStyle style) {
  return style == PlannerStyle::kConservative ? "conservative" : "aggressive";
}

ExpertParams expert_params_for(PlannerStyle style) {
  return style == PlannerStyle::kConservative ? ExpertParams::conservative()
                                              : ExpertParams::aggressive();
}

nn::Dataset generate_imitation_dataset(
    const scenario::LeftTurnScenario& scenario, const ExpertPolicy& expert,
    const InputEncoding& encoding, std::size_t n, util::Rng& rng) {
  const auto& g = scenario.geometry();
  const auto& lim = scenario.ego_limits();
  nn::Dataset data{nn::Matrix(n, InputEncoding::dim()), nn::Matrix(n, 1)};
  for (std::size_t i = 0; i < n; ++i) {
    const double p0 = rng.uniform(g.ego_start - 5.0, g.ego_back + 3.0);
    const double v0 = rng.uniform(lim.v_min, lim.v_max);

    util::Interval tau1;
    const double kind = rng.uniform01();
    if (kind < 0.15) {
      tau1 = util::Interval::empty_interval();  // oncoming vehicle passed
    } else if (kind < 0.30) {
      // Oncoming vehicle may already occupy the zone.
      tau1 = util::Interval{0.0, rng.uniform(0.3, 6.0)};
    } else {
      const double w_lo = rng.uniform(0.05, 10.0);
      tau1 = util::Interval{w_lo, w_lo + rng.uniform(0.3, 8.0)};
    }

    const auto x = encoding.encode(0.0, p0, v0, tau1);
    for (std::size_t j = 0; j < x.size(); ++j) data.inputs(i, j) = x[j];
    data.targets(i, 0) = expert.act(0.0, p0, v0, tau1);
  }
  return data;
}

nn::Dataset generate_onpolicy_dataset(
    const scenario::LeftTurnScenario& scenario, const nn::Mlp& net,
    const ExpertPolicy& expert, const InputEncoding& encoding,
    std::size_t episodes, util::Rng& rng) {
  const auto& g = scenario.geometry();
  const auto& ego_lim = scenario.ego_limits();
  const auto& c1_lim = scenario.oncoming_limits();
  const double dt = scenario.control_period();
  const vehicle::DoubleIntegrator ego_dyn(ego_lim);
  const vehicle::DoubleIntegrator c1_dyn(c1_lim);

  std::vector<std::vector<double>> inputs;
  std::vector<double> labels;
  nn::Workspace ws;  // reused across every rollout step (no per-step allocs)
  std::array<double, InputEncoding::dim()> x_step;
  for (std::size_t episode = 0; episode < episodes; ++episode) {
    vehicle::VehicleState ego{g.ego_start, rng.uniform(4.0, 12.0)};
    vehicle::VehicleState c1{rng.uniform(-62.0, -48.0),
                             rng.uniform(c1_lim.v_min + 2.0, c1_lim.v_max)};
    const auto steps = static_cast<std::size_t>(20.0 / dt);
    const auto profile =
        vehicle::AccelProfile::random(steps, dt, c1.v, c1_lim, {}, rng);
    for (std::size_t step = 0; step < steps; ++step) {
      const double t = static_cast<double>(step) * dt;
      filter::StateEstimate est;
      est.t = t;
      est.p = util::Interval::point(c1.p);
      est.v = util::Interval::point(c1.v);
      est.p_hat = c1.p;
      est.v_hat = c1.v;
      est.a_hat = profile.at(step);
      est.valid = true;
      const util::Interval tau1 = scenario.c1_window_conservative(est);

      // Sub-sample the visited states (every 4th control step) to keep
      // the on-policy set compact but representative.
      if (step % 4 == 0) {
        inputs.push_back(encoding.encode(t, ego.p, ego.v, tau1));
        labels.push_back(expert.act(t, ego.p, ego.v, tau1));
      }

      encoding.encode_into(t, ego.p, ego.v, tau1, x_step);
      const double a0 = net.predict_scalar(x_step, ws);
      ego = ego_dyn.step(ego, a0, dt);
      c1 = c1_dyn.step(c1, profile.at(step), dt);
      if (scenario.ego_reached_target(ego.p)) break;
    }
  }

  nn::Dataset data{nn::Matrix(inputs.size(), InputEncoding::dim()),
                   nn::Matrix(inputs.size(), 1)};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t j = 0; j < inputs[i].size(); ++j) {
      data.inputs(i, j) = inputs[i][j];
    }
    data.targets(i, 0) = labels[i];
  }
  return data;
}

namespace {

/// Concatenates two datasets (same shapes).
nn::Dataset concatenate(const nn::Dataset& a, const nn::Dataset& b) {
  nn::Dataset out{nn::Matrix(a.size() + b.size(), a.inputs.cols()),
                  nn::Matrix(a.size() + b.size(), a.targets.cols())};
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.inputs.cols(); ++j)
      out.inputs(i, j) = a.inputs(i, j);
    for (std::size_t j = 0; j < a.targets.cols(); ++j)
      out.targets(i, j) = a.targets(i, j);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::size_t j = 0; j < b.inputs.cols(); ++j)
      out.inputs(a.size() + i, j) = b.inputs(i, j);
    for (std::size_t j = 0; j < b.targets.cols(); ++j)
      out.targets(a.size() + i, j) = b.targets(i, j);
  }
  return out;
}

}  // namespace

nn::Mlp train_planner_network(const scenario::LeftTurnScenario& scenario,
                              PlannerStyle style,
                              const TrainingOptions& options) {
  util::Rng rng(options.seed ^
                (style == PlannerStyle::kAggressive ? 0xA66Eull : 0xC045ull));
  auto scenario_ptr =
      std::make_shared<const scenario::LeftTurnScenario>(scenario);
  const ExpertPolicy expert(scenario_ptr, expert_params_for(style));
  const InputEncoding encoding;
  nn::Dataset data = generate_imitation_dataset(
      scenario, expert, encoding, options.num_samples, rng);

  nn::Mlp net(options.spec, rng);
  nn::Adam opt(options.learning_rate);
  nn::TrainConfig config;
  config.epochs = options.epochs;
  config.batch_size = options.batch_size;
  nn::train(net, data, opt, config, rng);

  // Optional DAgger rounds: aggregate expert-relabeled on-policy states
  // and fine-tune.
  for (std::size_t round = 0; round < options.onpolicy_rounds; ++round) {
    const nn::Dataset visited = generate_onpolicy_dataset(
        scenario, net, expert, encoding,
        options.onpolicy_episodes_per_round, rng);
    if (visited.size() == 0) break;
    data = concatenate(data, visited);
    nn::TrainConfig fine = config;
    fine.epochs = options.onpolicy_epochs;
    nn::train(net, data, opt, fine, rng);
  }
  return net;  // nn::train leaves every W^T cache fresh
}

namespace {

/// FNV-1a over a string fingerprint of everything influencing training.
std::uint64_t fingerprint(const scenario::LeftTurnScenario& scenario,
                          PlannerStyle style, const TrainingOptions& options) {
  std::ostringstream os;
  const auto& g = scenario.geometry();
  const auto& e = scenario.ego_limits();
  const auto& c = scenario.oncoming_limits();
  const ExpertParams ep = expert_params_for(style);
  os << g.ego_front << ',' << g.ego_back << ',' << g.ego_start << ','
     << g.ego_target << ',' << g.c1_front << ',' << g.c1_back << ';'
     << e.v_min << ',' << e.v_max << ',' << e.a_min << ',' << e.a_max << ';'
     << c.v_min << ',' << c.v_max << ',' << c.a_min << ',' << c.a_max << ';'
     << planner_style_name(style) << ';' << ep.go_margin << ','
     << ep.clearance << ',' << ep.stop_offset << ';' << options.num_samples
     << ',' << options.epochs << ',' << options.batch_size << ','
     << options.learning_rate << ',' << options.seed << ','
     << options.onpolicy_rounds << ','
     << options.onpolicy_episodes_per_round << ','
     << options.onpolicy_epochs << ';';
  for (auto s : options.spec.layer_sizes) os << s << '-';
  const std::string s = os.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::filesystem::path cache_dir() {
  if (const auto dir = util::env_string("CVSAFE_MODEL_CACHE")) {
    return std::filesystem::path(*dir);
  }
  return std::filesystem::temp_directory_path() / "cvsafe-models";
}

std::mutex g_cache_mutex;
std::unordered_map<std::uint64_t, std::shared_ptr<const nn::Mlp>>
    g_memory_cache;

}  // namespace

std::shared_ptr<const nn::Mlp> cached_planner_network(
    const scenario::LeftTurnScenario& scenario, PlannerStyle style,
    const TrainingOptions& options) {
  const std::uint64_t key = fingerprint(scenario, style, options);

  std::lock_guard lock(g_cache_mutex);
  if (auto it = g_memory_cache.find(key); it != g_memory_cache.end()) {
    return it->second;
  }

  char name[64];
  std::snprintf(name, sizeof(name), "left_turn_%s_%016" PRIx64 ".mlp",
                planner_style_name(style), key);
  const std::filesystem::path path = cache_dir() / name;

  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    try {
      auto net = std::make_shared<const nn::Mlp>(
          nn::load_mlp_file(path.string()));
      // A well-formed model of the wrong shape is as corrupt as a
      // malformed one: kappa_n reads InputEncoding::dim() inputs and
      // writes one output.
      if (net->input_dim() == InputEncoding::dim() &&
          net->output_dim() == 1) {
        g_memory_cache[key] = net;
        return net;
      }
    } catch (const std::exception&) {
      // Corrupt cache entry: fall through and retrain.
    }
  }

  auto net = std::make_shared<const nn::Mlp>(
      train_planner_network(scenario, style, options));
  std::filesystem::create_directories(cache_dir(), ec);
  nn::save_mlp_file(*net, path.string());
  g_memory_cache[key] = net;
  return net;
}

std::shared_ptr<NnPlanner> make_nn_planner(
    const scenario::LeftTurnScenario& scenario, PlannerStyle style,
    const TrainingOptions& options) {
  auto net = cached_planner_network(scenario, style, options);
  const std::string name =
      std::string("nn_") + planner_style_name(style);
  return std::make_shared<NnPlanner>(std::move(net), InputEncoding{}, name);
}

}  // namespace cvsafe::planners
