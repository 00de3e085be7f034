#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cluster/curie.h"
#include "core/fingerprint.h"
#include "probes.h"

namespace perfbench {

using ps::core::ScenarioResult;
using ps::metrics::Sample;
using ps::sim::Time;

namespace {

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

double relative_error(double got, double want) {
  return std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
}

}  // namespace

std::int64_t count_runtime_records(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::int64_t count = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == ';') continue;
    std::istringstream fields(line);
    double job = 0, submit = 0, wait = 0, runtime = 0;
    if (!(fields >> job >> submit >> wait >> runtime)) {
      throw std::runtime_error("malformed SWF line in " + path + ": " + line);
    }
    if (runtime > 0) ++count;
  }
  return count;
}

double step_energy_joules(const std::vector<Sample>& samples, Time from, Time to) {
  double joules = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Time lo = std::max(samples[i].t, from);
    Time hi = i + 1 < samples.size() ? samples[i + 1].t : to;
    hi = std::min(hi, to);
    if (hi > lo) joules += samples[i].watts * static_cast<double>(hi - lo) / 1000.0;
  }
  return joules;
}

std::size_t overshoot_rises(const std::vector<Sample>& samples,
                            const std::vector<ScenarioResult::Window>& windows) {
  std::size_t rises = 0;
  for (const ScenarioResult::Window& w : windows) {
    bool have_previous = false;
    double previous = 0.0;
    for (const Sample& s : samples) {
      if (s.t < w.start || s.t >= w.end) continue;
      double over = std::max(0.0, s.watts - w.watts);
      if (have_previous && over > previous + 1e-6) ++rises;
      previous = over;
      have_previous = true;
    }
  }
  return rises;
}

void check_result(const ScenarioResult& r, std::int64_t expected_jobs,
                  const std::string& label, CheckLog& log) {
  const auto& s = r.summary;
  const auto& st = r.stats;
  if (static_cast<std::int64_t>(st.submitted) != expected_jobs) {
    log.fail(fmt("%s: %llu jobs submitted, the trace holds %lld with runtime > 0",
                 label.c_str(), static_cast<unsigned long long>(st.submitted),
                 static_cast<long long>(expected_jobs)));
  }
  if (st.started > st.submitted) log.fail(label + ": started > submitted");
  if (st.completed + st.killed > st.started) {
    log.fail(label + ": completed + killed > started");
  }
  double energy = step_energy_joules(r.samples, s.from, s.to);
  if (relative_error(s.energy_joules, energy) > 1e-9) {
    log.fail(fmt("%s: energy %.17g J, step integral of the samples %.17g J",
                 label.c_str(), s.energy_joules, energy));
  }
  double capacity = static_cast<double>(r.total_cores) *
                    static_cast<double>(s.to - s.from) / 1000.0;
  if (s.work_core_seconds > s.max_possible_work ||
      s.work_core_seconds > capacity * (1.0 + 1e-12)) {
    log.fail(fmt("%s: work %.17g core-s exceeds the machine's %.17g", label.c_str(),
                 s.work_core_seconds, capacity));
  }
  std::size_t rises = overshoot_rises(r.samples, r.windows);
  if (rises > 0) {
    log.fail(fmt("%s: draw above the cap rose %zu times inside a window",
                 label.c_str(), rises));
  }
}

void check_offline_plan(const ScenarioResult& r, const ps::core::PowercapConfig& powercap,
                        const ps::cluster::PowerModel& model, const std::string& label,
                        CheckLog& log) {
  if (!r.has_plan) return;  // no cap window, nothing planned
  const ps::core::OfflinePlan& plan = r.plan;
  const ps::cluster::FrequencyTable& table = model.frequencies();
  double floor_ghz = powercap.policy == ps::core::Policy::Mix ? powercap.mix_min_ghz
                                                              : table.ghz(0);
  double p_min = -1.0;
  for (std::size_t f = 0; f < table.size(); ++f) {
    if (table.ghz(f) >= floor_ghz - 1e-9) {
      p_min = table.watts(f);
      break;
    }
  }
  if (p_min < 0) {
    log.fail(label + ": policy floor above the frequency table");
    return;
  }
  double n = static_cast<double>(model.topology().total_nodes());
  double p_max = model.max_watts();
  double p_off = model.down_watts();
  double n_off = plan.split.n_off;
  double n_dvfs = plan.split.n_dvfs;
  if (n_off < 0 || n_dvfs < 0 || n_off + n_dvfs > n + 1e-9) {
    log.fail(fmt("%s: C2 violated (Noff %.6f + Ndvfs %.6f > N %.0f)", label.c_str(),
                 n_off, n_dvfs, n));
  }
  bool clamped = n_off >= n - 1e-9 || n_dvfs >= n - 1e-9;
  if (clamped) return;  // budget unreachable: the split does all it can
  double draw = n_off * p_off + n_dvfs * p_min + (n - n_off - n_dvfs) * p_max;
  double budget = plan.node_budget_watts;
  if (draw > budget * (1.0 + 1e-9)) {
    log.fail(fmt("%s: C3 violated (%.6f W planned over a %.6f W node budget)",
                 label.c_str(), draw, budget));
  }
  bool acts = plan.split.mechanism != ps::core::model::Mechanism::None;
  if (acts && relative_error(draw, budget) > 1e-9) {
    log.fail(fmt("%s: C3 not tight (%.6f W planned for a %.6f W node budget)",
                 label.c_str(), draw, budget));
  }
}

void check_fingerprint(std::uint64_t got, std::uint64_t want, const std::string& label,
                       CheckLog& log) {
  if (got != want) {
    log.fail(fmt("%s: fingerprint %016llx, expected %016llx", label.c_str(),
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want)));
  }
}

namespace {

// A small real replay: one rack, a few hundred jobs, a MIX cap window.
ScenarioResult small_replay(std::int64_t* jobs_out) {
  ps::workload::GeneratorParams params =
      ps::workload::params_for(ps::workload::Profile::MedianJob);
  params.job_count = 300;
  params.span = ps::sim::hours(2);
  std::vector<ps::workload::JobRequest> jobs = ps::workload::generate(params, 7);
  *jobs_out = static_cast<std::int64_t>(jobs.size());
  ps::core::ScenarioConfig config;
  config.racks = 1;
  config.powercap.policy = ps::core::Policy::Mix;
  config.cap_lambda = 0.5;
  config.trace_jobs = std::move(jobs);
  config.horizon = params.span;
  return ps::core::run_scenario(config);
}

// Two samples with an exactly known energy: 100 W for 1 s, then 200 W for
// 1 s.
ScenarioResult tiny_result() {
  ScenarioResult r;
  r.total_cores = 10;
  r.summary.from = 0;
  r.summary.to = 2000;
  Sample a;
  a.t = 0;
  a.watts = 100.0;
  Sample b;
  b.t = 1000;
  b.watts = 200.0;
  r.samples = {a, b};
  r.summary.energy_joules = 300.0;
  r.summary.max_possible_work = 20.0;
  r.summary.work_core_seconds = 10.0;
  return r;
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> problems;
  auto expect = [&problems](bool fired, bool should_fire, const std::string& what) {
    if (fired != should_fire) {
      problems.push_back(what + (should_fire ? ": check did not fire on a doctored input"
                                             : ": check fired on a good input"));
    }
  };
  auto fires = [](auto&& run) {
    CheckLog log;
    run(log);
    return !log.ok();
  };

  // Job count, ordering, energy, work and overshoot on a real replay.
  std::int64_t jobs = 0;
  ScenarioResult real = small_replay(&jobs);
  expect(fires([&](CheckLog& l) { check_result(real, jobs, "real", l); }), false,
         "result checks");
  expect(fires([&](CheckLog& l) { check_result(real, jobs + 1, "dropped job", l); }), true,
         "job count");
  ScenarioResult started = real;
  started.stats.started = started.stats.submitted + 1;
  expect(fires([&](CheckLog& l) { check_result(started, jobs, "started", l); }), true,
         "started <= submitted");
  ScenarioResult ended = real;
  ended.stats.completed = ended.stats.started + 1 - ended.stats.killed;
  expect(fires([&](CheckLog& l) { check_result(ended, jobs, "ended", l); }), true,
         "completed + killed <= started");
  ScenarioResult overworked = real;
  overworked.summary.work_core_seconds = overworked.summary.max_possible_work * 1.001;
  expect(fires([&](CheckLog& l) { check_result(overworked, jobs, "work", l); }), true,
         "work <= capacity");

  // Energy off by one joule.
  ScenarioResult tiny = tiny_result();
  expect(fires([&](CheckLog& l) { check_result(tiny, 0, "tiny", l); }), false,
         "energy integral");
  tiny.summary.energy_joules += 1.0;
  expect(fires([&](CheckLog& l) { check_result(tiny, 0, "energy", l); }), true,
         "energy integral");

  // An overshoot that rises inside a window, and one that only decays.
  ScenarioResult decaying = tiny_result();
  decaying.windows = {{500, 5000, 50.0}};
  decaying.samples.clear();
  for (auto [t, w] : {std::pair<Time, double>{0, 80.0}, {1000, 120.0}, {2000, 110.0},
                      {3000, 60.0}}) {
    Sample s;
    s.t = t;
    s.watts = w;
    decaying.samples.push_back(s);
  }
  decaying.summary.to = 4000;
  decaying.summary.energy_joules = step_energy_joules(decaying.samples, 0, 4000);
  expect(overshoot_rises(decaying.samples, decaying.windows) > 0, false, "overshoot decay");
  ScenarioResult rising = decaying;
  rising.samples[3].watts = 115.0;
  expect(overshoot_rises(rising.samples, rising.windows) > 0, true, "overshoot decay");

  // Fingerprint off by one bit.
  std::uint64_t fp = ps::core::fingerprint(real);
  expect(fires([&](CheckLog& l) { check_fingerprint(fp, fp, "same", l); }), false,
         "fingerprint");
  expect(fires([&](CheckLog& l) { check_fingerprint(fp ^ 1u, fp, "bit", l); }), true,
         "fingerprint");

  // C2/C3 on the real replay's MIX plan, then with Noff nudged by one node.
  ps::cluster::PowerModel model = ps::cluster::curie::scaled_power_model(1);
  ps::core::PowercapConfig mix;
  mix.policy = ps::core::Policy::Mix;
  if (!real.has_plan) problems.push_back("self-test replay planned nothing");
  expect(fires([&](CheckLog& l) { check_offline_plan(real, mix, model, "plan", l); }), false,
         "C2/C3");
  ScenarioResult loose = real;
  loose.plan.split.n_off += 1.0;
  expect(fires([&](CheckLog& l) { check_offline_plan(loose, mix, model, "C3", l); }), true,
         "C3");
  ScenarioResult wide = real;
  wide.plan.split.n_dvfs = static_cast<double>(model.topology().total_nodes());
  expect(fires([&](CheckLog& l) { check_offline_plan(wide, mix, model, "C2", l); }), true,
         "C2");

  // The live observer: a node held twice, a job ended twice, a rising
  // overshoot.
  ps::cluster::Cluster cluster = ps::cluster::curie::make_scaled_cluster(1);
  InvariantObserver clean(cluster);
  ps::rjms::Job a;
  a.request.id = 1;
  a.nodes = {0, 1};
  ps::rjms::Job b;
  b.request.id = 2;
  b.nodes = {1, 2};
  clean.on_job_start(a);
  clean.on_job_end(a);
  clean.on_job_start(b);
  clean.on_job_end(b);
  expect(clean.double_holds + clean.double_ends > 0, false, "live node/end invariants");
  InvariantObserver doubled(cluster);
  doubled.on_job_start(a);
  doubled.on_job_start(b);
  expect(doubled.double_holds > 0, true, "live node invariant");
  doubled.on_job_end(a);
  doubled.on_job_end(a);
  expect(doubled.double_ends > 0, true, "live end-once invariant");
  InvariantObserver live(cluster);
  double idle = cluster.watts();
  live.set_windows({{0, 10'000, idle - 10.0}});
  live.on_state_change(100);
  live.on_state_change(200);
  live.finish();
  expect(live.overshoot_rises > 0, false, "live overshoot");
  // The idle draw cannot change without a controller, so the doctored
  // input lowers the cap between two samples instead: the overshoot grows.
  InvariantObserver live_rise(cluster);
  live_rise.set_windows({{0, 10'000, idle - 10.0}});
  live_rise.on_state_change(100);
  live_rise.finish();
  live_rise.set_windows({{0, 10'000, idle - 20.0}});
  live_rise.on_state_change(200);
  live_rise.finish();
  expect(live_rise.overshoot_rises > 0, true, "live overshoot");
  return problems;
}

}  // namespace perfbench
