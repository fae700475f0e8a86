#include "tsu/core/experiment.hpp"

#include <sstream>

namespace tsu::core {

std::string ExperimentResult::summary_line() const {
  std::ostringstream out;
  out << to_string(algorithm) << ": rounds=" << schedule.round_count()
      << " check=" << (check.ok ? "OK" : "VIOLATED")
      << " update=" << execution.update_ms() << "ms traffic{"
      << execution.traffic.to_string() << "}";
  return out.str();
}

Result<ExperimentResult> run_experiment(const update::Instance& inst,
                                        Algorithm algorithm,
                                        const ExecutorConfig& exec_config,
                                        const PlannerOptions& plan_options) {
  PlannerOptions options = plan_options;
  options.verify = true;
  Result<PlanOutcome> outcome = plan(inst, algorithm, options);
  if (!outcome.ok()) return outcome.error();

  ExperimentResult result;
  result.algorithm = algorithm;
  result.schedule = std::move(outcome.value().schedule);
  result.check = std::move(*outcome.value().report);

  Result<MultiFlowExecutionResult> execution =
      execute_multiflow({&inst}, {&result.schedule}, exec_config);
  if (!execution.ok()) return execution.error();
  result.execution = std::move(execution.value().flows.front());
  return result;
}

Result<SeedSweep> sweep_seeds(const update::Instance& inst,
                              const update::Schedule& schedule,
                              ExecutorConfig exec_config,
                              const std::vector<std::uint64_t>& seeds) {
  SeedSweep sweep;
  for (const std::uint64_t seed : seeds) {
    exec_config.seed = seed;
    Result<MultiFlowExecutionResult> execution =
        execute_multiflow({&inst}, {&schedule}, exec_config);
    if (!execution.ok()) return execution.error();
    const ExecutionResult& result = execution.value().flows.front();

    sweep.update_ms.add(result.update_ms());
    sweep.update_ms_pct.add(result.update_ms());
    sweep.bypassed.add(static_cast<double>(result.traffic.bypassed));
    sweep.looped.add(static_cast<double>(result.traffic.looped));
    sweep.blackholed.add(static_cast<double>(result.traffic.blackholed +
                                             result.traffic.ttl_expired));
    sweep.delivered.add(static_cast<double>(result.traffic.delivered));
    ++sweep.runs;
    if (result.traffic.bypassed > 0) ++sweep.runs_with_bypass;
    if (result.traffic.looped > 0) ++sweep.runs_with_loop;
    if (result.traffic.blackholed + result.traffic.ttl_expired > 0)
      ++sweep.runs_with_drop;
  }
  return sweep;
}

}  // namespace tsu::core
