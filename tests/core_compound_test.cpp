// The generic framework: CompoundPlanner + SafetyModelBase on a minimal
// synthetic world type, independent of any vehicle scenario — verifying
// the monitor's selection logic (Section III-C), statistics, and the
// aggressive-shrink plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/core/evaluation.hpp"
#include "cvsafe/core/guard.hpp"
#include "cvsafe/core/version.hpp"

namespace cvsafe::core {
namespace {

/// Minimal synthetic world: a scalar "danger" level.
struct ToyWorld {
  double danger = 0.0;
  bool shrunk = false;
};

class ToyPlanner final : public PlannerBase<ToyWorld> {
 public:
  double plan(const ToyWorld& w) override {
    ++calls;
    saw_shrunk = w.shrunk;
    return 1.0;  // always accelerate
  }
  std::string_view name() const override { return "toy"; }
  int calls = 0;
  bool saw_shrunk = false;
};

class ToySafetyModel final : public SafetyModelBase<ToyWorld> {
 public:
  bool in_unsafe_set(const ToyWorld& w) const override {
    return w.danger > 1.0;
  }
  bool in_boundary_safe_set(const ToyWorld& w) const override {
    return w.danger > 0.5 && w.danger <= 1.0;
  }
  double emergency_accel(const ToyWorld&) const override { return -2.0; }
  void shrink_for_planner(ToyWorld& w) const override { w.shrunk = true; }
};

TEST(CompoundPlanner, SelectsNnWhenSafe) {
  auto nn = std::make_shared<ToyPlanner>();
  CompoundPlanner<ToyWorld> compound(nn, std::make_shared<ToySafetyModel>());
  EXPECT_EQ(compound.plan(ToyWorld{0.1, false}), 1.0);
  EXPECT_FALSE(compound.last_was_emergency());
  EXPECT_EQ(nn->calls, 1);
}

TEST(CompoundPlanner, SelectsEmergencyInBoundarySet) {
  auto nn = std::make_shared<ToyPlanner>();
  CompoundPlanner<ToyWorld> compound(nn, std::make_shared<ToySafetyModel>());
  EXPECT_EQ(compound.plan(ToyWorld{0.7, false}), -2.0);
  EXPECT_TRUE(compound.last_was_emergency());
  EXPECT_EQ(nn->calls, 0);  // NN never consulted during emergency
}

TEST(CompoundPlanner, ShrinkAppliedOnlyWhenEnabled) {
  auto nn = std::make_shared<ToyPlanner>();
  CompoundPlanner<ToyWorld> basic(nn, std::make_shared<ToySafetyModel>(),
                                  CompoundOptions{false});
  basic.plan(ToyWorld{0.0, false});
  EXPECT_FALSE(nn->saw_shrunk);

  CompoundPlanner<ToyWorld> ultimate(nn, std::make_shared<ToySafetyModel>(),
                                     CompoundOptions{true});
  ultimate.plan(ToyWorld{0.0, false});
  EXPECT_TRUE(nn->saw_shrunk);
}

TEST(CompoundPlanner, NameReflectsConfiguration) {
  auto nn = std::make_shared<ToyPlanner>();
  CompoundPlanner<ToyWorld> basic(nn, std::make_shared<ToySafetyModel>());
  EXPECT_EQ(basic.name(), "compound(toy)");
  CompoundPlanner<ToyWorld> ult(nn, std::make_shared<ToySafetyModel>(),
                                CompoundOptions{true});
  EXPECT_EQ(ult.name(), "compound(toy, aggressive)");
}

TEST(CompoundPlanner, RecordsSwitchEvents) {
  auto nn = std::make_shared<ToyPlanner>();
  CompoundPlanner<ToyWorld> compound(nn, std::make_shared<ToySafetyModel>());
  compound.plan(ToyWorld{0.1, false});  // nn
  compound.plan(ToyWorld{0.8, false});  // -> emergency (step 1)
  compound.plan(ToyWorld{0.9, false});  // still emergency (no new event)
  compound.plan(ToyWorld{0.1, false});  // -> nn (step 3)
  compound.plan(ToyWorld{0.7, false});  // -> emergency again (step 4)

  const auto& events = compound.switch_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].step, 1u);
  EXPECT_TRUE(events[0].to_emergency);
  EXPECT_EQ(events[0].reason, "boundary");  // default classification
  EXPECT_EQ(events[1].step, 3u);
  EXPECT_FALSE(events[1].to_emergency);
  EXPECT_EQ(events[2].step, 4u);
  EXPECT_TRUE(events[2].to_emergency);
}

TEST(CompoundPlanner, SwitchEventsAreBounded) {
  auto nn = std::make_shared<ToyPlanner>();
  CompoundPlanner<ToyWorld> compound(nn, std::make_shared<ToySafetyModel>());
  for (std::size_t i = 0;
       i < CompoundPlanner<ToyWorld>::kMaxSwitchEvents * 2; ++i) {
    compound.plan(ToyWorld{i % 2 == 0 ? 0.8 : 0.1, false});  // flip-flop
  }
  EXPECT_EQ(compound.switch_events().size(),
            CompoundPlanner<ToyWorld>::kMaxSwitchEvents);
}

/// Planner that can be told to misbehave.
class FaultyPlanner final : public PlannerBase<ToyWorld> {
 public:
  enum class Mode { kOk, kNan, kInf, kThrow };
  Mode mode = Mode::kOk;

  double plan(const ToyWorld&) override {
    switch (mode) {
      case Mode::kOk: return 1.5;
      case Mode::kNan: return std::nan("");
      case Mode::kInf: return std::numeric_limits<double>::infinity();
      case Mode::kThrow: throw std::runtime_error("inference failed");
    }
    return 0.0;
  }
  std::string_view name() const override { return "faulty"; }
};

TEST(GuardedPlanner, PassesThroughHealthyOutput) {
  auto inner = std::make_shared<FaultyPlanner>();
  GuardedPlanner<ToyWorld> guard(inner, std::make_shared<ToySafetyModel>());
  EXPECT_EQ(guard.plan(ToyWorld{}), 1.5);
  EXPECT_EQ(guard.incidents(), 0u);
  EXPECT_EQ(guard.name(), "guarded(faulty)");
}

TEST(GuardedPlanner, AbsorbsNanInfAndExceptions) {
  auto inner = std::make_shared<FaultyPlanner>();
  GuardedPlanner<ToyWorld> guard(inner, std::make_shared<ToySafetyModel>());
  inner->mode = FaultyPlanner::Mode::kNan;
  EXPECT_EQ(guard.plan(ToyWorld{}), -2.0);  // emergency fallback
  inner->mode = FaultyPlanner::Mode::kInf;
  EXPECT_EQ(guard.plan(ToyWorld{}), -2.0);
  inner->mode = FaultyPlanner::Mode::kThrow;
  EXPECT_EQ(guard.plan(ToyWorld{}), -2.0);
  EXPECT_EQ(guard.incidents(), 3u);
}

TEST(GuardedPlanner, ComposesInsideCompound) {
  auto inner = std::make_shared<FaultyPlanner>();
  inner->mode = FaultyPlanner::Mode::kNan;
  auto model = std::make_shared<ToySafetyModel>();
  auto guarded = std::make_shared<GuardedPlanner<ToyWorld>>(inner, model);
  CompoundPlanner<ToyWorld> compound(guarded, model);
  // Away from the boundary the NN would be used; its NaN is absorbed.
  EXPECT_EQ(compound.plan(ToyWorld{0.1, false}), -2.0);
  EXPECT_FALSE(compound.last_was_emergency());  // monitor did not trigger
  EXPECT_EQ(guarded->incidents(), 1u);
}

TEST(Eta, MatchesSectionIIA) {
  EXPECT_EQ(eta({true, false, 0.0}), -1.0);
  EXPECT_EQ(eta({true, true, 5.0}), -1.0);  // violation dominates
  EXPECT_NEAR(eta({false, true, 8.0}), 0.125, 1e-12);
  EXPECT_EQ(eta({false, false, 0.0}), 0.0);  // timeout
}

TEST(Version, NonEmpty) {
  EXPECT_STRNE(version(), "");
}

}  // namespace
}  // namespace cvsafe::core
