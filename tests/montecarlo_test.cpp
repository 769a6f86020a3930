// Tests for the Monte-Carlo harness: determinism across thread counts,
// per-trial streams, and degrade-don't-die failure handling (partial
// results, failure metrics, exceptions, no redraws).
#include "gridsec/sim/montecarlo.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gridsec/obs/metrics.hpp"

namespace gridsec::sim {
namespace {

StatusOr<double> trial_value(std::size_t i, Rng& rng) {
  // Depends on both the index and the per-trial stream.
  return static_cast<double>(i) + rng.uniform();
}

TEST(MonteCarlo, ResultsInTrialOrder) {
  const auto out = run_trials<double>(
      nullptr, 8, 1, [](std::size_t i, Rng&) -> StatusOr<double> {
        return static_cast<double>(i) * 2.0;
      });
  ASSERT_EQ(out.results.size(), 8u);
  EXPECT_TRUE(out.failures.empty());
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    ASSERT_TRUE(out.results[i].has_value());
    EXPECT_DOUBLE_EQ(*out.results[i], static_cast<double>(i) * 2.0);
  }
}

TEST(MonteCarlo, IdenticalAcrossThreadCounts) {
  ThreadPool pool1(1), pool4(4);
  const auto serial = run_trials<double>(nullptr, 64, 42, trial_value);
  const auto one = run_trials<double>(&pool1, 64, 42, trial_value);
  const auto four = run_trials<double>(&pool4, 64, 42, trial_value);
  EXPECT_EQ(serial.results, one.results);
  EXPECT_EQ(serial.results, four.results);
}

TEST(MonteCarlo, SeedChangesResults) {
  const auto a = run_trials<double>(nullptr, 16, 1, trial_value);
  const auto b = run_trials<double>(nullptr, 16, 2, trial_value);
  EXPECT_NE(a.results, b.results);
}

TEST(MonteCarlo, TrialsAreIndependentStreams) {
  // Two trials with the same body must see different random values.
  const auto out = run_trials<double>(
      nullptr, 2, 3,
      [](std::size_t, Rng& rng) -> StatusOr<double> { return rng.uniform(); });
  ASSERT_TRUE(out.results[0].has_value());
  ASSERT_TRUE(out.results[1].has_value());
  EXPECT_NE(*out.results[0], *out.results[1]);
}

TEST(MonteCarlo, ZeroTrials) {
  const auto out = run_trials<int>(
      nullptr, 0, 1, [](std::size_t, Rng&) -> StatusOr<int> { return 1; });
  EXPECT_TRUE(out.results.empty());
  EXPECT_TRUE(out.failures.empty());
}

// ---------------------------------------------------------------------------
// Degrade-don't-die: failed trials are recorded, not fatal.

TEST(MonteCarloRobust, IdenticalAcrossThreadCounts) {
  // Which trials fail, and with what, does not depend on the pool either.
  const auto fn = [](std::size_t i, Rng& rng) -> StatusOr<double> {
    const double draw = rng.uniform();
    if (draw < 0.3) return Status::numerical_error("trial " + std::to_string(i));
    return draw;
  };
  ThreadPool pool4(4);
  const auto serial = run_trials<double>(nullptr, 64, 7, fn);
  const auto four = run_trials<double>(&pool4, 64, 7, fn);
  EXPECT_EQ(serial.results, four.results);
  ASSERT_FALSE(serial.failures.empty());
  ASSERT_EQ(serial.failures.size(), four.failures.size());
  for (std::size_t k = 0; k < serial.failures.size(); ++k) {
    EXPECT_EQ(serial.failures[k].trial, four.failures[k].trial);
    EXPECT_EQ(serial.failures[k].status.message(),
              four.failures[k].status.message());
  }
}

TEST(MonteCarloRobust, RecordsPartialResultsAndFailures) {
  auto& c_failed =
      obs::default_registry().counter("sim.montecarlo.failed_trials");
  auto& c_invalid = obs::default_registry().counter(
      "sim.montecarlo.failed.INVALID_ARGUMENT");
  const auto failed_before = c_failed.value();
  const auto invalid_before = c_invalid.value();

  const auto out = run_trials<double>(
      nullptr, 10, 5, [](std::size_t i, Rng&) -> StatusOr<double> {
        if (i % 3 == 0) {
          return Status::invalid_argument("trial " + std::to_string(i));
        }
        return static_cast<double>(i);
      });
  ASSERT_EQ(out.failures.size(), 4u);  // trials 0, 3, 6, 9
  EXPECT_EQ(out.failures[0].trial, 0u);
  EXPECT_EQ(out.failures[1].trial, 3u);
  EXPECT_EQ(out.failures[0].status.code(), ErrorCode::kInvalidArgument);
  for (std::size_t i = 0; i < 10; ++i) {
    if (i % 3 == 0) {
      EXPECT_FALSE(out.results[i].has_value());
    } else {
      ASSERT_TRUE(out.results[i].has_value());
      EXPECT_DOUBLE_EQ(*out.results[i], static_cast<double>(i));
    }
  }
  // Failures land in the obs metrics with a per-code breakdown.
  EXPECT_EQ(c_failed.value(), failed_before + 4);
  EXPECT_EQ(c_invalid.value(), invalid_before + 4);
}

TEST(MonteCarloRobust, NoRetryForNonNumericalFailures) {
  // A failed trial is dropped, never redrawn, whatever its code: a redraw
  // would bias the point's mean.
  std::vector<int> calls(4, 0);
  const auto out = run_trials<double>(
      nullptr, 4, 13, [&](std::size_t i, Rng&) -> StatusOr<double> {
        ++calls[i];
        if (i == 0) return Status::infeasible("hard failure");
        if (i == 1) return Status::numerical_error("wedged");
        return 1.0;
      });
  EXPECT_EQ(calls, (std::vector<int>{1, 1, 1, 1}));
  ASSERT_EQ(out.failures.size(), 2u);
  EXPECT_EQ(out.failures[0].status.code(), ErrorCode::kInfeasible);
  EXPECT_EQ(out.failures[1].status.code(), ErrorCode::kNumericalError);
}

TEST(MonteCarloRobust, ExceptionsBecomeInternalStatus) {
  const auto out = run_trials<double>(
      nullptr, 3, 19, [](std::size_t i, Rng&) -> StatusOr<double> {
        if (i == 1) throw std::runtime_error("kaboom");
        return 1.0;
      });
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].trial, 1u);
  EXPECT_EQ(out.failures[0].status.code(), ErrorCode::kInternal);
  EXPECT_NE(out.failures[0].status.message().find("kaboom"),
            std::string::npos);
  EXPECT_TRUE(out.results[0].has_value());
  EXPECT_TRUE(out.results[2].has_value());
}

}  // namespace
}  // namespace gridsec::sim
