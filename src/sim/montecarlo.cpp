#include "gridsec/sim/montecarlo.hpp"

#include "gridsec/obs/log.hpp"

namespace gridsec::sim::detail {

void note_trial_failure(const Status& status, std::size_t trial,
                        std::uint64_t seed) {
  auto& reg = obs::default_registry();
  static obs::Counter& c_failed = reg.counter("sim.montecarlo.failed_trials");
  c_failed.add();
  // Per-code breakdown, e.g. sim.montecarlo.failed.NUMERICAL_ERROR. The
  // code set is small and closed, so the dynamic lookup stays cheap.
  reg.counter("sim.montecarlo.failed." +
              std::string(to_string(status.code())))
      .add();
  // trial + sweep seed reproduce the exact RNG stream of the failed trial:
  // Rng(seed).derive_stream(trial).
  GRIDSEC_LOG(kWarn, "sim.montecarlo")
      .field("trial", trial)
      .field("seed", seed)
      .field("code", to_string(status.code()))
      .message(status.message());
}

}  // namespace gridsec::sim::detail
