#include "policy/controller.hpp"

#include "util/assert.hpp"

namespace gearsim::policy {

WaitPredictor::WaitPredictor(double alpha) : alpha_(alpha) {
  GEARSIM_REQUIRE(alpha_ > 0.0 && alpha_ <= 1.0, "alpha must be in (0, 1]");
}

void WaitPredictor::reset(int nprocs) {
  GEARSIM_REQUIRE(nprocs >= 1, "need at least one rank");
  ewma_.assign(static_cast<std::size_t>(nprocs), {});
}

double WaitPredictor::predict(int rank, mpi::CallType type,
                              Bytes bytes) const {
  GEARSIM_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < ewma_.size(),
                  "rank out of range");
  const auto& table = ewma_[static_cast<std::size_t>(rank)];
  const auto it = table.find(Key{static_cast<int>(type), bytes});
  return it != table.end() ? it->second : -1.0;
}

void WaitPredictor::observe(int rank, mpi::CallType type, Bytes bytes,
                            Seconds waited) {
  GEARSIM_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < ewma_.size(),
                  "rank out of range");
  auto& table = ewma_[static_cast<std::size_t>(rank)];
  const Key key{static_cast<int>(type), bytes};
  const auto it = table.find(key);
  if (it == table.end()) {
    table.emplace(key, waited.value());
  } else {
    it->second += alpha_ * (waited.value() - it->second);
  }
}

RuntimeController::RuntimeController(std::size_t initial_gear)
    : initial_gear_(initial_gear) {}

std::size_t RuntimeController::compute_gear(int rank) const {
  GEARSIM_REQUIRE(
      rank >= 0 && static_cast<std::size_t>(rank) < compute_gears_.size(),
      "rank out of range (was begin_run called?)");
  return compute_gears_[static_cast<std::size_t>(rank)];
}

std::size_t RuntimeController::comm_gear(int rank) const {
  GEARSIM_REQUIRE(
      rank >= 0 && static_cast<std::size_t>(rank) < comm_gears_.size(),
      "rank out of range (was begin_run called?)");
  return comm_gears_[static_cast<std::size_t>(rank)];
}

void RuntimeController::begin_run(int nprocs) {
  GEARSIM_REQUIRE(nprocs >= 1, "need at least one rank");
  compute_gears_.assign(static_cast<std::size_t>(nprocs), initial_gear_);
  comm_gears_.assign(static_cast<std::size_t>(nprocs), initial_gear_);
  clocks_.assign(static_cast<std::size_t>(nprocs), trace::IterationClock{});
  reset(nprocs);
}

void RuntimeController::on_blocking_enter(int rank, mpi::CallType type,
                                          Bytes bytes, Seconds now) {
  if (clocks_[static_cast<std::size_t>(rank)].on_call(type, bytes)) {
    on_iteration_end(rank, now);
  }
  observe_blocking_enter(rank, type, bytes, now);
}

void RuntimeController::on_blocking_exit(int rank, mpi::CallType type,
                                         Bytes bytes, Seconds now,
                                         Seconds waited) {
  observe_blocking_exit(rank, type, bytes, now, waited);
}

}  // namespace gearsim::policy
