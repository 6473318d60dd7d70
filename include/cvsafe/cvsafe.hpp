#pragma once

/// \file cvsafe.hpp
/// Umbrella header: the entire public API in one include.

// Core framework (the paper's contribution).
#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/core/evaluation.hpp"
#include "cvsafe/core/guard.hpp"
#include "cvsafe/core/planner.hpp"
#include "cvsafe/core/preimage.hpp"
#include "cvsafe/core/safety_model.hpp"
#include "cvsafe/core/version.hpp"

// Substrates.
#include "cvsafe/comm/channel.hpp"
#include "cvsafe/comm/message.hpp"
#include "cvsafe/filter/consistency.hpp"
#include "cvsafe/filter/estimate.hpp"
#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/filter/naive.hpp"
#include "cvsafe/filter/reachability.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"
#include "cvsafe/vehicle/state.hpp"
#include "cvsafe/vehicle/trajectory.hpp"

// Neural-network substrate.
#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/gradcheck.hpp"
#include "cvsafe/nn/layer.hpp"
#include "cvsafe/nn/loss.hpp"
#include "cvsafe/nn/matrix.hpp"
#include "cvsafe/nn/metrics.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/normalizer.hpp"
#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/schedule.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/nn/trainer.hpp"

// Scenarios.
#include "cvsafe/scenario/intersection.hpp"
#include "cvsafe/scenario/lane_change.hpp"
#include "cvsafe/scenario/left_turn.hpp"
#include "cvsafe/scenario/multi_vehicle.hpp"
#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/scenario/world.hpp"

// Planners.
#include "cvsafe/planners/ensemble.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/planners/training.hpp"

// Closed-loop engine and scenario adapters.
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"

// Evaluation harness.
#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/config_io.hpp"
#include "cvsafe/eval/experiments.hpp"

// Offline verification.
#include "cvsafe/verify/certify.hpp"

// Utilities.
#include "cvsafe/util/config.hpp"
#include "cvsafe/util/config_file.hpp"
#include "cvsafe/util/csv.hpp"
#include "cvsafe/util/interval.hpp"
#include "cvsafe/util/interval_set.hpp"
#include "cvsafe/util/kinematics.hpp"
#include "cvsafe/util/linalg.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/util/stats.hpp"
#include "cvsafe/util/table.hpp"
#include "cvsafe/util/thread_pool.hpp"
