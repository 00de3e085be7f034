// Output checks of the benchmark. Each recomputes a property from the raw
// outputs (the generated SWF, the recorded samples, the power model)
// without going through the program's own summary code, so a check fails
// when the program's result is wrong rather than when it merely changed.
// self_test() feeds every check a doctored result and confirms it fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/power_model.h"
#include "core/experiment.h"
#include "metrics/timeseries.h"

namespace perfbench {

/// Collects check failures of one round (an empty log is a pass).
struct CheckLog {
  std::vector<std::string> failures;
  void fail(std::string message) { failures.push_back(std::move(message)); }
  bool ok() const { return failures.empty(); }
};

/// Data lines of an SWF file whose run time (field 4) is > 0: the jobs a
/// replay that skips zero-runtime records must submit.
std::int64_t count_runtime_records(const std::string& path);

/// Step integral of the recorded draw over [from, to), in joules.
double step_energy_joules(const std::vector<ps::metrics::Sample>& samples,
                          ps::sim::Time from, ps::sim::Time to);

/// Consecutive sample pairs inside one cap window where the draw above the
/// cap grew (paper admission lets an overshoot carried into a window only
/// decay). Samples at or below the cap count as overshoot 0.
std::size_t overshoot_rises(
    const std::vector<ps::metrics::Sample>& samples,
    const std::vector<ps::core::ScenarioResult::Window>& windows);

/// The properties every workload checks on one scenario result: job count
/// against the trace, started <= submitted, completed + killed <= started,
/// energy against the step integral, work within the machine's capacity,
/// overshoot only decaying.
void check_result(const ps::core::ScenarioResult& result,
                  std::int64_t expected_jobs, const std::string& label,
                  CheckLog& log);

/// The paper's constraints on a cell's offline split: C2 (Noff + Ndvfs
/// <= N) and C3 (Noff*Poff + Ndvfs*Pmin + rest*Pmax within the plan's
/// node budget, tight unless a count is clamped to N or no action is
/// needed), with Pmax, Poff and Pmin at the policy's DVFS floor read from
/// the power model.
void check_offline_plan(const ps::core::ScenarioResult& result,
                        const ps::core::PowercapConfig& powercap,
                        const ps::cluster::PowerModel& model,
                        const std::string& label, CheckLog& log);

/// Two fingerprints that must agree (traced vs untraced, daemon vs
/// offline replay).
void check_fingerprint(std::uint64_t got, std::uint64_t want,
                       const std::string& label, CheckLog& log);

/// Runs every check on a known-good and a doctored input. Returns one line
/// per check that passed a doctored input or failed a good one.
std::vector<std::string> self_test();

}  // namespace perfbench
