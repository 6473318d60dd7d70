#include "cvsafe/planners/nn_planner.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "cvsafe/obs/profile.hpp"
#include "cvsafe/util/contracts.hpp"

namespace cvsafe::planners {

std::vector<double> InputEncoding::encode(double t, double p0, double v0,
                                          const util::Interval& tau1) const {
  std::vector<double> out(dim());
  encode_into(t, p0, v0, tau1, out);
  return out;
}

void InputEncoding::encode_into(double t, double p0, double v0,
                                const util::Interval& tau1,
                                std::span<double> out) const {
  assert(out.size() == dim());
  double w_lo;
  double w_hi;
  if (tau1.empty() || tau1.hi <= t) {
    w_lo = w_min;
    w_hi = w_min;
  } else {
    w_lo = std::clamp(tau1.lo - t, w_min, w_max);
    w_hi = std::clamp(tau1.hi - t, w_min, w_max);
  }
  out[0] = p0 / p_scale;
  out[1] = v0 / v_scale;
  out[2] = w_lo / w_scale;
  out[3] = w_hi / w_scale;
}

NnPlanner::NnPlanner(std::shared_ptr<const nn::Mlp> net,
                     InputEncoding encoding, std::string name)
    : net_(std::move(net)), encoding_(encoding), name_(std::move(name)) {
  CVSAFE_EXPECTS(net_ != nullptr, "NnPlanner needs a network");
  CVSAFE_EXPECTS(net_->input_dim() == InputEncoding::dim(),
                 "NnPlanner network must read InputEncoding::dim() inputs");
  CVSAFE_EXPECTS(net_->output_dim() == 1,
                 "NnPlanner network must write one output");
}

double NnPlanner::plan(const scenario::LeftTurnWorld& world) {
  CVSAFE_PROFILE_SPAN("nn.plan");
  std::array<double, InputEncoding::dim()> x;
  encoding_.encode_into(world.t, world.ego.p, world.ego.v, world.tau1_nn, x);
  return net_->predict_scalar(x, workspace_);
}

void NnPlanner::plan_batch(std::span<const scenario::LeftTurnWorld> worlds,
                           std::span<double> out) {
  CVSAFE_PROFILE_SPAN("nn.plan_batch");
  assert(worlds.size() == out.size());
  // Tiled evaluation: the workspace (input staging + two activation
  // buffers) grows monotonically with the largest batch seen, so an
  // unbounded batch from a fleet-sized pool would pin
  // O(pool * max_layer_width) doubles per planner. Capping tiles at
  // kTileRows bounds the workspace while keeping each matmul wide enough
  // to amortize the weight traffic. Per-row arithmetic is independent of
  // the tile split, so results stay bit-identical to one whole-batch
  // call (and to plan() per row).
  constexpr std::size_t kTileRows = 512;
  for (std::size_t base = 0; base < worlds.size(); base += kTileRows) {
    const std::size_t rows = std::min(kTileRows, worlds.size() - base);
    nn::Matrix& in = workspace_.input(rows, InputEncoding::dim());
    for (std::size_t i = 0; i < rows; ++i) {
      const auto& w = worlds[base + i];
      encoding_.encode_into(
          w.t, w.ego.p, w.ego.v, w.tau1_nn,
          std::span<double>(in.data()).subspan(i * InputEncoding::dim(),
                                               InputEncoding::dim()));
    }
    const nn::Matrix& y = net_->forward_into(in, workspace_);
    for (std::size_t i = 0; i < rows; ++i) out[base + i] = y(i, 0);
  }
}

}  // namespace cvsafe::planners
