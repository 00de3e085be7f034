#include "probes.h"

#include <algorithm>
#include <stdexcept>

#include "cluster/curie.h"
#include "core/obs_publish.h"
#include "core/powercap_manager.h"
#include "core/submission_pump.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"

namespace perfbench {

using ps::sim::Time;

bool TimingSource::next_chunk(Time until, std::vector<ps::workload::JobRequest>& out) {
  Clock::time_point t0 = Clock::now();
  if (!first_pull) first_pull = t0;
  bool more = inner_->next_chunk(until, out);
  busy_s += seconds_between(t0, Clock::now());
  return more;
}

Time TimingSource::last_submit_hint() {
  Clock::time_point t0 = Clock::now();
  Time hint = inner_->last_submit_hint();
  busy_s += seconds_between(t0, Clock::now());
  return hint;
}

void TimingSource::rewind() {
  Clock::time_point t0 = Clock::now();
  if (!first_rewind) first_rewind = t0;
  inner_->rewind();
  busy_s += seconds_between(t0, Clock::now());
}

std::optional<ps::rjms::PowerGovernor::Admission> TimingGovernor::admit(
    const ps::rjms::Job& job, const std::vector<ps::cluster::NodeId>& nodes) {
  Clock::time_point t0 = Clock::now();
  std::optional<Admission> verdict = inner_.admit(job, nodes);
  busy_s += seconds_between(t0, Clock::now());
  ++calls;
  return verdict;
}

void QueueProbe::on_state_change(Time) {
  std::uint64_t pending = controller_.pending_count();
  peak = std::max(peak, pending);
  sum += static_cast<double>(pending);
  ++samples;
}

InvariantObserver::InvariantObserver(const ps::cluster::Cluster& cluster)
    : cluster_(cluster),
      holder_(static_cast<std::size_t>(cluster.topology().total_nodes()), -1) {}

void InvariantObserver::on_job_start(const ps::rjms::Job& job) {
  for (ps::cluster::NodeId node : job.nodes) {
    ps::rjms::JobId& holder = holder_.at(static_cast<std::size_t>(node));
    if (holder != -1) ++double_holds;
    holder = job.id();
  }
}

void InvariantObserver::on_job_end(const ps::rjms::Job& job) {
  if (!ended_.insert(job.id()).second) ++double_ends;
  for (ps::cluster::NodeId node : job.nodes) {
    ps::rjms::JobId& holder = holder_.at(static_cast<std::size_t>(node));
    if (holder == job.id()) holder = -1;
  }
}

void InvariantObserver::on_state_change(Time now) {
  if (now != open_t_) close_sample();
  open_t_ = now;
  open_watts_ = cluster_.watts();
}

void InvariantObserver::finish() {
  close_sample();
  open_t_ = -1;
}

void InvariantObserver::close_sample() {
  if (open_t_ < 0) return;
  int window = -1;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    if (open_t_ >= windows_[i].start && open_t_ < windows_[i].end) {
      window = static_cast<int>(i);
      break;
    }
  }
  if (window < 0) {
    last_window_ = -1;
    return;
  }
  double over = std::max(0.0, open_watts_ - windows_[static_cast<std::size_t>(window)].watts);
  if (window == last_window_ && over > last_over_ + 1e-6) ++overshoot_rises;
  last_window_ = window;
  last_over_ = over;
}

void LayerProbes::add(const LayerProbes& o) {
  pull_s += o.pull_s;
  admit_s += o.admit_s;
  admit_calls += o.admit_calls;
  residual_s += o.residual_s;
  plan_s += o.plan_s;
  summarize_s += o.summarize_s;
  wall_s += o.wall_s;
  pending_peak = std::max(pending_peak, o.pending_peak);
  pending_sum += o.pending_sum;
  pending_samples += o.pending_samples;
  samples += o.samples;
  sample_bytes += o.sample_bytes;
  double_holds += o.double_holds;
  double_ends += o.double_ends;
  overshoot_rises += o.overshoot_rises;
  stats.submitted += o.stats.submitted;
  stats.started += o.stats.started;
  stats.completed += o.stats.completed;
  stats.killed += o.stats.killed;
  stats.rejected += o.stats.rejected;
  stats.full_passes += o.stats.full_passes;
  stats.backfill_starts += o.stats.backfill_starts;
  stats.quick_attempts += o.stats.quick_attempts;
  stats.submit_batches += o.stats.submit_batches;
  stats.selector_fast_fails += o.stats.selector_fast_fails;
  stats.admission_fast_fails += o.stats.admission_fast_fails;
}

// Mirrors core::run_scenario's single-window path step for step; only the
// probes differ. A change to that wiring shows up as a fingerprint mismatch
// between the traced and the untraced run.
TracedScenario run_traced_scenario(const ps::core::ScenarioConfig& config) {
  if (!config.job_source || !config.cap_windows.empty() || config.racks < 1) {
    throw std::invalid_argument("traced replay: needs a job source and one cap window");
  }
  Clock::time_point t_enter = Clock::now();
  TracedScenario traced;
  LayerProbes& p = traced.probes;

  ps::cluster::Cluster cl = ps::cluster::curie::make_scaled_cluster(config.racks);
  ps::sim::Simulator simulator;
  ps::rjms::Controller controller(simulator, cl, config.controller);
  ps::core::PowercapManager manager(controller, config.powercap);
  TimingGovernor governor(manager.governor());
  if (config.powercap.policy != ps::core::Policy::None) controller.set_governor(&governor);
  ps::metrics::Recorder recorder(controller);
  QueueProbe queue(controller);
  InvariantObserver invariants(cl);
  controller.add_observer(&queue);
  controller.add_observer(&invariants);

  TimingSource source(config.job_source);
  source.rewind();
  double width_scale = static_cast<double>(config.racks) /
                       static_cast<double>(ps::cluster::curie::kRacks);
  Time horizon = config.horizon;
  bool horizon_from_hint = false;
  if (horizon <= 0) {
    horizon_from_hint = true;
    Time last_submit = source.last_submit_hint();
    if (last_submit < 0) throw std::runtime_error("traced replay: source has no hint");
    horizon = last_submit + ps::sim::hours(1);
  }

  ps::core::ScenarioResult& result = traced.result;
  result.max_cluster_watts = cl.power_model().max_cluster_watts();
  result.total_cores = cl.topology().total_cores();
  if (config.cap_lambda < 1.0 && config.powercap.policy != ps::core::Policy::None) {
    Time start = config.cap_start >= 0 ? config.cap_start
                                       : (horizon - config.cap_duration) / 2;
    Time end = start + config.cap_duration;
    double watts = manager.lambda_to_watts(config.cap_lambda);
    Clock::time_point t0 = Clock::now();
    manager.add_powercap(start, end, watts);
    p.plan_s += seconds_between(t0, Clock::now());
    result.windows.push_back({start, end, watts});
  }
  if (!result.windows.empty()) {
    result.cap_watts = result.windows.front().watts;
    result.cap_start = result.windows.front().start;
    result.cap_end = result.windows.front().end;
  }
  invariants.set_windows(result.windows);

  ps::sim::Duration chunk =
      config.submit_chunk > 0 ? config.submit_chunk : ps::core::kDefaultStreamChunk;
  ps::core::SubmissionPump pump(simulator, controller, source, horizon, chunk, width_scale);
  pump.prime();
  simulator.set_default_band(ps::sim::EventBand::kNormal);

  double pull_before = source.busy_s;
  double admit_before = governor.busy_s;
  Clock::time_point run0 = Clock::now();
  simulator.run_until(horizon);
  double run_s = seconds_between(run0, Clock::now());
  p.residual_s = run_s - (source.busy_s - pull_before) - (governor.busy_s - admit_before);
  if (horizon_from_hint && !pump.fully_drained()) {
    throw std::runtime_error("traced replay: job source outlived its hint");
  }
  recorder.sample(horizon);
  invariants.finish();
  double drift = cl.watts() - cl.audit_watts();
  if (drift > 1e-6 || drift < -1e-6) {
    throw std::runtime_error("traced replay: power accounting drifted");
  }

  result.plans = manager.release_plans();
  if (!result.plans.empty()) {
    result.has_plan = true;
    result.plan = result.plans.front();
  }
  Clock::time_point s0 = Clock::now();
  result.summary = ps::metrics::summarize(recorder, controller, 0, horizon);
  p.summarize_s = seconds_between(s0, Clock::now());
  result.stats = controller.stats();
  result.samples = recorder.samples();
  ps::core::publish_replay_metrics(simulator, pump, manager);

  p.pull_s = source.busy_s;
  p.admit_s = governor.busy_s;
  p.admit_calls = governor.calls;
  p.pending_peak = queue.peak;
  p.pending_sum = queue.sum;
  p.pending_samples = queue.samples;
  p.samples = recorder.samples().size();
  for (const ps::metrics::Sample& s : recorder.samples()) {
    p.sample_bytes += sizeof(ps::metrics::Sample) +
                      s.busy_by_freq.capacity() * sizeof(std::int32_t);
  }
  p.double_holds = invariants.double_holds;
  p.double_ends = invariants.double_ends;
  p.overshoot_rises = invariants.overshoot_rises;
  p.stats = result.stats;
  p.wall_s = seconds_between(t_enter, Clock::now());
  return traced;
}

}  // namespace perfbench
