// Probes the benchmark inserts between the program's public parts. The
// traced replay (run_traced_scenario) wires the same pieces
// core::run_scenario wires — Simulator, Controller, PowercapManager,
// Recorder, SubmissionPump — so it can put a timing wrapper around the job
// source and the governor and attach observers, without any span or
// counter inside the program. Its result must fingerprint like the
// untraced run's; the caller checks that.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "core/experiment.h"
#include "rjms/controller.h"
#include "rjms/power_governor.h"
#include "workload/job_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Forwards to another job source and times every call. It also stamps the
/// first rewind and the first pull, which bound a replay's set-up phase.
class TimingSource final : public ps::workload::JobSource {
 public:
  explicit TimingSource(std::shared_ptr<ps::workload::JobSource> inner)
      : inner_(std::move(inner)) {}
  bool next_chunk(ps::sim::Time until,
                  std::vector<ps::workload::JobRequest>& out) override;
  ps::sim::Time last_submit_hint() override;
  void rewind() override;

  std::optional<Clock::time_point> first_rewind;
  std::optional<Clock::time_point> first_pull;
  double busy_s = 0.0;  ///< wall time inside the three calls

 private:
  std::shared_ptr<ps::workload::JobSource> inner_;
};

/// Forwards to the powercap manager's governor and times admit().
class TimingGovernor final : public ps::rjms::PowerGovernor {
 public:
  explicit TimingGovernor(ps::rjms::PowerGovernor& inner) : inner_(inner) {}
  std::optional<Admission> admit(const ps::rjms::Job& job,
                                 const std::vector<ps::cluster::NodeId>& nodes) override;
  double max_walltime_stretch() const override { return inner_.max_walltime_stretch(); }
  bool admission_known_rejected(const ps::rjms::Job& job,
                                std::int32_t width) const override {
    return inner_.admission_known_rejected(job, width);
  }

  double busy_s = 0.0;
  std::uint64_t calls = 0;

 private:
  ps::rjms::PowerGovernor& inner_;
};

/// Samples the pending-queue depth at every controller state change.
class QueueProbe final : public ps::rjms::ControllerObserver {
 public:
  explicit QueueProbe(const ps::rjms::Controller& controller)
      : controller_(controller) {}
  void on_state_change(ps::sim::Time now) override;

  std::uint64_t peak = 0;
  double sum = 0.0;
  std::uint64_t samples = 0;

 private:
  const ps::rjms::Controller& controller_;
};

/// The aim-3 guarantees checked live: no node is held by two running jobs,
/// every job ends at most once, and inside a cap window the draw above the
/// cap never grows from one recorded sample to the next (same-timestamp
/// state changes collapse into one sample, as the recorder collapses them).
class InvariantObserver final : public ps::rjms::ControllerObserver {
 public:
  explicit InvariantObserver(const ps::cluster::Cluster& cluster);
  void set_windows(std::vector<ps::core::ScenarioResult::Window> windows) {
    windows_ = std::move(windows);
  }
  void on_job_start(const ps::rjms::Job& job) override;
  void on_job_end(const ps::rjms::Job& job) override;
  void on_state_change(ps::sim::Time now) override;
  /// Closes the last open sample (call after the replay).
  void finish();

  std::uint64_t double_holds = 0;
  std::uint64_t double_ends = 0;
  std::uint64_t overshoot_rises = 0;

 private:
  void close_sample();

  const ps::cluster::Cluster& cluster_;
  std::vector<ps::rjms::JobId> holder_;  ///< per node; -1 = free
  std::unordered_set<ps::rjms::JobId> ended_;
  std::vector<ps::core::ScenarioResult::Window> windows_;
  ps::sim::Time open_t_ = -1;
  double open_watts_ = 0.0;
  int last_window_ = -1;
  double last_over_ = 0.0;
};

/// Per-layer figures of one traced replay (summed over cells for the grid).
struct LayerProbes {
  double pull_s = 0.0;
  double admit_s = 0.0;
  std::uint64_t admit_calls = 0;
  double residual_s = 0.0;
  double plan_s = 0.0;
  double summarize_s = 0.0;
  double wall_s = 0.0;  ///< the whole traced scenario
  std::uint64_t pending_peak = 0;
  double pending_sum = 0.0;
  std::uint64_t pending_samples = 0;
  std::uint64_t samples = 0;
  std::uint64_t sample_bytes = 0;
  std::uint64_t double_holds = 0;
  std::uint64_t double_ends = 0;
  std::uint64_t overshoot_rises = 0;
  ps::rjms::Controller::Stats stats;

  void add(const LayerProbes& other);
};

struct TracedScenario {
  ps::core::ScenarioResult result;
  LayerProbes probes;
};

/// The traced replay. Requires config.job_source and a single-window cap
/// (cap_windows empty) — the shapes every benchmark workload uses.
TracedScenario run_traced_scenario(const ps::core::ScenarioConfig& config);

}  // namespace perfbench
