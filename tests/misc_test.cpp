// Coverage for the small corners: logging, call-type names, engine
// run_until with processes, meter edge cases, scheduler helpers, world
// context allocation.
#include <gtest/gtest.h>

#include <sstream>

#include "mpi/types.hpp"
#include "power/energy_meter.hpp"
#include "sched/profile.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

namespace gearsim {
namespace {

// --- logging --------------------------------------------------------------------

TEST(Log, LevelParsing) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kWarn);
}

TEST(Log, ThresholdFilters) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Macro body must not evaluate the stream below the threshold.
  int evaluations = 0;
  const auto count = [&evaluations] {
    ++evaluations;
    return "x";
  };
  GEARSIM_DEBUG(count());
  EXPECT_EQ(evaluations, 0);
  set_log_level(original);
}

// --- call-type names ---------------------------------------------------------------

TEST(CallTypes, EveryTypeHasANameAndBlockingClass) {
  using mpi::CallType;
  for (CallType t : {CallType::kSend, CallType::kRecv, CallType::kIsend,
                     CallType::kIrecv, CallType::kWait, CallType::kWaitall,
                     CallType::kSendrecv, CallType::kBarrier, CallType::kBcast,
                     CallType::kReduce, CallType::kAllreduce,
                     CallType::kAlltoall, CallType::kAllgather,
                     CallType::kGather, CallType::kScatter,
                     CallType::kReduceScatter, CallType::kScan,
                     CallType::kCommSplit}) {
    EXPECT_STRNE(mpi::to_string(t), "?");
  }
  EXPECT_FALSE(mpi::is_blocking_point(mpi::CallType::kSend));
  EXPECT_FALSE(mpi::is_blocking_point(mpi::CallType::kIsend));
  EXPECT_FALSE(mpi::is_blocking_point(mpi::CallType::kIrecv));
  EXPECT_TRUE(mpi::is_blocking_point(mpi::CallType::kScan));
}

// --- engine run_until with processes -------------------------------------------------

TEST(Engine, RunUntilPausesAndResumesAProcess) {
  sim::Engine engine;
  std::vector<double> marks;
  engine.spawn("p", [&](sim::Process& p) {
    marks.push_back(p.now().value());
    p.delay(seconds(10.0));
    marks.push_back(p.now().value());
  });
  engine.run_until(seconds(5.0));
  EXPECT_EQ(marks.size(), 1u);  // Started, not yet woken.
  engine.run();                 // Drain the rest.
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_DOUBLE_EQ(marks[1], 10.0);
}

TEST(Engine, RunUntilAdvancesClockOnEmptyQueue) {
  sim::Engine engine;
  engine.run_until(seconds(3.0));
  EXPECT_DOUBLE_EQ(engine.now().value(), 3.0);
}

// --- meter edge cases -----------------------------------------------------------------

TEST(EnergyMeter, MeanPowersThrowWithoutTimeInState) {
  power::EnergyMeter meter(1);
  meter.set_power(0, seconds(0.0), watts(50.0), power::NodeState::kActive);
  meter.finish(seconds(1.0));
  EXPECT_DOUBLE_EQ(meter.node(0).mean_active_power().value(), 50.0);
  EXPECT_THROW((void)meter.node(0).mean_idle_power(), ContractError);
}

TEST(EnergyMeter, UntouchedNodeContributesNothing) {
  power::EnergyMeter meter(2);
  meter.set_power(0, seconds(0.0), watts(10.0), power::NodeState::kIdle);
  meter.finish(seconds(2.0));
  EXPECT_DOUBLE_EQ(meter.node(1).total.value(), 0.0);
  EXPECT_DOUBLE_EQ(meter.total_energy().value(), 20.0);
}

// --- table/formatting corners ----------------------------------------------------------

TEST(TextTable, PrintWritesToStream) {
  TextTable t({"a"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| a |"), std::string::npos);
}

TEST(TextTable, RuleSeparatesSections) {
  TextTable t({"x"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // Header rule + top + bottom + the explicit one = 4 horizontal rules.
  std::size_t rules = 0;
  for (std::size_t pos = s.find("+--"); pos != std::string::npos;
       pos = s.find("+--", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

// --- scheduler helpers ------------------------------------------------------------------

TEST(SchedHelpers, ObjectiveNames) {
  using O = sched::WorkloadProfile::Objective;
  EXPECT_EQ(sched::to_string(O::kMinTime), "min-time");
  EXPECT_EQ(sched::to_string(O::kMinEnergy), "min-energy");
  EXPECT_EQ(sched::to_string(O::kMinEdp), "min-EDP");
}

TEST(SchedHelpers, ConfigPointDerivedQuantities) {
  const sched::ConfigPoint p{4, 1, 2, seconds(10.0), joules(2000.0)};
  EXPECT_DOUBLE_EQ(p.mean_power().value(), 200.0);
  EXPECT_DOUBLE_EQ(p.edp(), 20000.0);
}

// --- scaling-shape names -------------------------------------------------------------------

TEST(Shapes, Names) {
  EXPECT_EQ(to_string(ScalingShape::kConstant), "constant");
  EXPECT_EQ(to_string(ScalingShape::kLogarithmic), "logarithmic");
  EXPECT_EQ(to_string(ScalingShape::kLinear), "linear");
  EXPECT_EQ(to_string(ScalingShape::kQuadratic), "quadratic");
}

}  // namespace
}  // namespace gearsim
