#include "cvsafe/planners/ensemble.hpp"

#include <array>
#include <cassert>
#include <cmath>

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::planners {

EnsemblePlanner::EnsemblePlanner(
    std::vector<std::shared_ptr<const nn::Mlp>> members,
    InputEncoding encoding, std::string name, double sigma_penalty)
    : members_(std::move(members)),
      encoding_(encoding),
      name_(std::move(name)),
      sigma_penalty_(sigma_penalty) {
  CVSAFE_EXPECTS(!members_.empty(), "EnsemblePlanner needs a member");
  for (const auto& m : members_) {
    CVSAFE_EXPECTS(m != nullptr, "EnsemblePlanner member is null");
    CVSAFE_EXPECTS(m->input_dim() == InputEncoding::dim(),
                   "EnsemblePlanner member must read InputEncoding::dim() "
                   "inputs");
    CVSAFE_EXPECTS(m->output_dim() == 1,
                   "EnsemblePlanner member must write one output");
  }
}

double EnsemblePlanner::plan(const scenario::LeftTurnWorld& world) {
  std::array<double, InputEncoding::dim()> x;
  encoding_.encode_into(world.t, world.ego.p, world.ego.v, world.tau1_nn, x);
  double sum = 0.0;
  double sum2 = 0.0;
  for (const auto& m : members_) {
    const double y = m->predict_scalar(x, workspace_);
    sum += y;
    sum2 += y * y;
  }
  const double n = static_cast<double>(members_.size());
  const double mean = sum / n;
  const double var = std::max(0.0, sum2 / n - mean * mean);
  last_disagreement_ = std::sqrt(var);
  return mean - sigma_penalty_ * last_disagreement_;
}

std::vector<std::shared_ptr<const nn::Mlp>> train_planner_ensemble(
    const scenario::LeftTurnScenario& scenario, PlannerStyle style,
    std::size_t k, const TrainingOptions& base_options) {
  assert(k >= 1);
  std::vector<std::shared_ptr<const nn::Mlp>> members;
  members.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    TrainingOptions options = base_options;
    // Distinct seed per member -> distinct init, shuffling and sampled
    // dataset; the cache distinguishes them by fingerprint.
    options.seed = base_options.seed + 0x9e3779b9ull * (i + 1);
    members.push_back(cached_planner_network(scenario, style, options));
  }
  return members;
}

}  // namespace cvsafe::planners
