// Trains the two NN planners (conservative / aggressive) from scratch by
// imitation of the analytic experts and saves them to disk.
//
// Usage: train_planner [output_dir]

#include <cstdio>
#include <string>

#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/planners/training.hpp"

int main(int argc, char** argv) {
  using namespace cvsafe;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  const auto scenario = config.make_scenario();

  for (const auto style : {planners::PlannerStyle::kConservative,
                           planners::PlannerStyle::kAggressive}) {
    const char* style_name = planners::planner_style_name(style);
    std::printf("=== training %s planner ===\n", style_name);

    planners::TrainingOptions options;
    util::Rng rng(options.seed);
    const auto expert_params = planners::expert_params_for(style);
    const planners::ExpertPolicy expert(scenario, expert_params);
    const planners::InputEncoding encoding;

    const nn::Dataset full = planners::generate_imitation_dataset(
        *scenario, expert, encoding, options.num_samples, rng);
    const auto [train_set, val_set] = full.split(0.1);
    std::printf("dataset: %zu train / %zu validation samples\n",
                train_set.size(), val_set.size());

    nn::Mlp net(options.spec, rng);
    std::printf("network: %zu parameters\n", net.parameter_count());

    nn::Adam opt(options.learning_rate);
    nn::TrainConfig tc;
    tc.epochs = options.epochs;
    tc.batch_size = options.batch_size;
    tc.on_epoch = [](std::size_t epoch, double loss) {
      if (epoch % 10 == 0) {
        std::printf("  epoch %3zu  train mse %.5f\n", epoch, loss);
      }
    };
    nn::train(net, train_set, opt, tc, rng);
    std::printf("validation mse: %.5f\n", nn::evaluate(net, val_set));

    const std::string path =
        out_dir + "/left_turn_" + style_name + ".mlp";
    if (nn::save_mlp_file(net, path)) {
      std::printf("saved %s\n\n", path.c_str());
    } else {
      std::fprintf(stderr, "failed to save %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}
