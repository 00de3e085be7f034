// perfbench: one round of one benchmark workload per process, printed as
// one JSON line (run.py repeats rounds for the measured time and takes
// medians). A fresh process per round makes peak RSS a per-round figure.
//
//   perfbench replay --swf TRACE --trace 0|1
//   perfbench grid --seed N --trace 0|1
//   perfbench serve --swf TRACE --serve-bin PS_SERVE --spool DIR --trace 0|1
//   perfbench selftest
//
// --trace 0 runs the program's own entry points (core::run_scenario,
// core::SweepEngine) and reports the end-to-end metrics; --trace 1 runs the
// probed composition of probes.h and reports per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "checks.h"
#include "cluster/curie.h"
#include "core/fingerprint.h"
#include "core/sweep.h"
#include "dist/protocol.h"
#include "dist/serde.h"
#include "obs/registry.h"
#include "probes.h"
#include "serve_round.h"
#include "workload/job_source.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using ps::core::ScenarioConfig;
using ps::core::ScenarioResult;

/// What one round prints: checks, operation counts, metrics.
struct Round {
  CheckLog log;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  double wall_s = 0.0;  ///< the measured phase (trace overhead is its ratio)
  double jobs = 0.0;    ///< jobs submitted (serve: admitted) in the measured phase
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> notes;  ///< operation breakdown, human-readable

  void metric(const std::string& name, double value) { metrics.emplace_back(name, value); }
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_round(const Round& r) {
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::string out = "{\"ok\":";
  out += r.log.ok() ? "true" : "false";
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < r.log.failures.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.log.failures[i]);
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "],\"attempted\":%llu,\"failed\":%llu,\"fingerprint\":\"%016llx\","
                "\"wall_s\":%.9g,\"jobs\":%.0f,\"metrics\":{",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.fingerprint), r.wall_s, r.jobs);
  out += buf;
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%s:%.17g", i > 0 ? "," : "",
                  json_string(r.metrics[i].first).c_str(),
                  std::isfinite(r.metrics[i].second) ? r.metrics[i].second : 0.0);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t counter(const char* name) {
  return ps::obs::Registry::global().counter(name).value();
}

/// Registry counters the replay publishes at its end, as deltas.
class RegistryDelta {
 public:
  RegistryDelta() {
    for (const char* name : kNames) before_[name] = counter(name);
  }
  std::uint64_t operator()(const char* name) const { return counter(name) - before_.at(name); }

 private:
  static constexpr const char* kNames[] = {
      "core.events_fired", "core.events_scheduled", "core.pump_refills",
      "core.admission_cache.hits", "core.admission_cache.misses",
      "core.admission_cache.carries"};
  std::map<std::string, std::uint64_t> before_;
};

void layer_metrics(Round& r, const LayerProbes& p, const RegistryDelta& reg,
                   const std::vector<double>& cell_walls) {
  r.metric("sim.events_fired", static_cast<double>(reg("core.events_fired")));
  r.metric("sim.events_scheduled", static_cast<double>(reg("core.events_scheduled")));
  r.metric("workload.pull_s", p.pull_s);
  r.metric("rjms.full_passes", static_cast<double>(p.stats.full_passes));
  r.metric("rjms.pending_peak", static_cast<double>(p.pending_peak));
  r.metric("rjms.pending_mean",
           p.pending_samples > 0 ? p.pending_sum / static_cast<double>(p.pending_samples) : 0.0);
  r.metric("rjms.residual_s", p.residual_s);
  r.metric("rjms.quick_attempts", static_cast<double>(p.stats.quick_attempts));
  r.metric("rjms.selector_fast_fails", static_cast<double>(p.stats.selector_fast_fails));
  r.metric("rjms.admission_fast_fails", static_cast<double>(p.stats.admission_fast_fails));
  r.metric("core.online.admit_s", p.admit_s);
  r.metric("core.online.admit_calls", static_cast<double>(p.admit_calls));
  r.metric("core.online.cache_hits", static_cast<double>(reg("core.admission_cache.hits")));
  r.metric("core.online.cache_carries",
           static_cast<double>(reg("core.admission_cache.carries")));
  r.metric("core.online.cache_misses",
           static_cast<double>(reg("core.admission_cache.misses")));
  r.metric("core.offline.plan_s", p.plan_s);
  r.metric("core.pump.refills", static_cast<double>(reg("core.pump_refills")));
  double sum = 0.0, max = 0.0;
  for (double w : cell_walls) {
    sum += w;
    max = std::max(max, w);
  }
  r.metric("core.sweep.cell_mean_s", cell_walls.empty() ? 0.0 : sum / cell_walls.size());
  r.metric("core.sweep.cell_max_s", max);
  r.metric("metrics.samples", static_cast<double>(p.samples));
  r.metric("metrics.sample_bytes", static_cast<double>(p.sample_bytes));
  r.metric("metrics.summarize_s", p.summarize_s);
}

void check_live_invariants(const LayerProbes& p, const std::string& label, CheckLog& log) {
  if (p.double_holds > 0) log.fail(label + ": a node was held by two running jobs");
  if (p.double_ends > 0) log.fail(label + ": a job ended twice");
  if (p.overshoot_rises > 0) log.fail(label + ": draw above the cap rose inside a window");
}

// allocs_per_job rides along with the end-to-end metrics of an untraced
// round; run.py reports it among the per-layer metrics of a traced run.
void end_to_end(Round& r, double jobs, double measured_s, double setup_s, double rss_mb,
                double allocs_per_job, double effective_core_s, double energy_j) {
  r.jobs = jobs;
  r.metric("jobs_per_s", jobs / measured_s);
  r.metric("setup_s", setup_s);
  r.metric("peak_rss_mb", rss_mb);
  r.metric("process.allocs_per_job", allocs_per_job);
  r.metric("effective_work_core_h", effective_core_s / 3600.0);
  r.metric("energy_per_work_j", energy_j / effective_core_s);
}

// --- replay: streamed SWF trace on 2 racks, MIX, one 1 h window at 0.5 ------

ScenarioConfig replay_config(const std::string& swf) {
  ps::workload::SwfStreamSource::Options options;
  options.parse.skip_zero_runtime = true;
  ScenarioConfig config;
  config.racks = 2;
  config.powercap.policy = ps::core::Policy::Mix;
  config.cap_lambda = 0.5;
  config.job_source = std::make_shared<ps::workload::SwfStreamSource>(swf, options);
  return config;
}

void account_jobs(Round& r, std::int64_t expected, const ps::rjms::Controller::Stats& st,
                  const std::string& label) {
  std::uint64_t lost =
      expected > static_cast<std::int64_t>(st.submitted)
          ? static_cast<std::uint64_t>(expected) - st.submitted
          : 0;
  r.attempted += static_cast<std::uint64_t>(expected);
  r.failed += st.rejected + lost;
  r.notes.push_back(label + ": jobs attempted " + std::to_string(expected) + ", rejected " +
                    std::to_string(st.rejected) + ", lost " + std::to_string(lost));
}

Round replay_round(const std::string& swf, bool traced) {
  Round r;
  std::int64_t expected = count_runtime_records(swf);
  ScenarioConfig config = replay_config(swf);
  if (traced) {
    RegistryDelta reg;
    TracedScenario t = run_traced_scenario(config);
    check_result(t.result, expected, "replay", r.log);
    check_live_invariants(t.probes, "replay", r.log);
    r.fingerprint = ps::core::fingerprint(t.result);
    r.wall_s = t.probes.wall_s;
    layer_metrics(r, t.probes, reg, {t.probes.wall_s});
    account_jobs(r, expected, t.result.stats, "replay");
    return r;
  }
  auto source = std::make_shared<TimingSource>(config.job_source);
  config.job_source = source;
  std::uint64_t allocs0 = alloc_count();
  Clock::time_point t0 = Clock::now();
  ScenarioResult result = ps::core::run_scenario(config);
  Clock::time_point t1 = Clock::now();
  std::uint64_t allocs = alloc_count() - allocs0;
  check_result(result, expected, "replay", r.log);
  r.fingerprint = ps::core::fingerprint(result);
  double setup = seconds_between(t0, *source->first_pull);
  r.wall_s = seconds_between(t0, t1);
  double submitted = static_cast<double>(result.stats.submitted);
  end_to_end(r, submitted, seconds_between(*source->first_pull, t1), setup, peak_rss_mb(),
             static_cast<double>(allocs) / submitted,
             result.summary.effective_work_core_seconds, result.summary.energy_joules);
  account_jobs(r, expected, result.stats, "replay");
  return r;
}

// --- grid: the paper's Fig-8 grid at full Curie scale ------------------------

struct GridCell {
  std::string label;
  ScenarioConfig config;
  std::vector<ps::workload::JobRequest> jobs;
  std::int64_t expected = 0;
};

// Each cell draws its own jobs from its profile (seed * 27 + cell), so a
// round averages the cost of 27 independent draws instead of 3: the bigjob
// profile's rare huge jobs set much of a draw's cost, and three shared draws
// made the grid's throughput swing with the seed.
std::vector<GridCell> make_grid(std::uint64_t seed) {
  const std::pair<double, ps::core::Policy> scenarios[] = {
      {0.40, ps::core::Policy::Mix},  {0.40, ps::core::Policy::Dvfs},
      {0.40, ps::core::Policy::Shut}, {0.60, ps::core::Policy::Mix},
      {0.60, ps::core::Policy::Dvfs}, {0.60, ps::core::Policy::Shut},
      {0.80, ps::core::Policy::Dvfs}, {0.80, ps::core::Policy::Shut},
      {1.00, ps::core::Policy::None}};
  const ps::workload::Profile profiles[] = {ps::workload::Profile::BigJob,
                                            ps::workload::Profile::MedianJob,
                                            ps::workload::Profile::SmallJob};
  std::vector<GridCell> grid;
  for (ps::workload::Profile profile : profiles) {
    ps::workload::GeneratorParams params = ps::workload::params_for(profile);
    for (const auto& [lambda, policy] : scenarios) {
      GridCell cell;
      cell.label = std::string(ps::workload::to_string(profile)) + " " +
                   std::to_string(static_cast<int>(lambda * 100)) + "%/" +
                   ps::core::to_string(policy);
      cell.jobs = ps::workload::generate(params, seed * 27 + grid.size());
      cell.expected = std::count_if(cell.jobs.begin(), cell.jobs.end(),
                                    [](const auto& j) { return j.base_runtime > 0; });
      cell.config.racks = ps::cluster::curie::kRacks;
      cell.config.powercap.policy = policy;
      cell.config.cap_lambda = lambda;
      // The profile's own span and one pull of the whole job list: the
      // wiring run_scenario gives a generated profile.
      cell.config.horizon = params.span;
      cell.config.submit_chunk = params.span;
      grid.push_back(std::move(cell));
    }
  }
  return grid;
}

std::uint64_t grid_fingerprint(const std::vector<std::uint64_t>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t fp : cells) h = ps::core::fnv1a(h, fp);
  return h;
}

/// Sends a cell's config (jobs shipped inline, as a distributed sweep
/// ships them) and its result through serialize, seal, open and parse.
/// Returns the sealed bytes; the parsed result must fingerprint alike.
std::uint64_t codec_roundtrip(const GridCell& cell, const ScenarioResult& result,
                              CheckLog& log) {
  ScenarioConfig shipped = cell.config;
  shipped.job_source = nullptr;
  shipped.trace_jobs = cell.jobs;
  std::string config_doc = ps::dist::seal_document(ps::dist::serialize(shipped));
  ScenarioConfig parsed_config =
      ps::dist::parse_scenario_config(ps::dist::open_document(config_doc));
  if (!parsed_config.trace_jobs || parsed_config.trace_jobs->size() != cell.jobs.size()) {
    log.fail(cell.label + ": cell config lost jobs through the codec");
  }
  std::string result_doc = ps::dist::seal_document(ps::dist::serialize(result));
  ScenarioResult parsed = ps::dist::parse_scenario_result(ps::dist::open_document(result_doc));
  check_fingerprint(ps::core::fingerprint(parsed), ps::core::fingerprint(result),
                    cell.label + " through the codec", log);
  return config_doc.size() + result_doc.size();
}

Round grid_round(std::uint64_t seed, bool traced) {
  Round r;
  std::vector<GridCell> grid = make_grid(seed);
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t n = grid.size();
  std::vector<ScenarioResult> results(n);
  std::vector<std::uint64_t> fingerprints(n, 0);
  std::vector<char> threw(n, 0);
  ps::cluster::PowerModel model = ps::cluster::curie::power_model();

  if (traced) {
    RegistryDelta reg;
    std::vector<LayerProbes> probes(n);
    std::vector<double> codec_s(n, 0.0);
    std::vector<std::uint64_t> codec_bytes(n, 0);
    std::vector<CheckLog> logs(n);
    std::atomic<std::size_t> next{0};
    Clock::time_point t0 = Clock::now();
    {
      std::vector<std::thread> pool;
      for (std::size_t w = 0; w < threads; ++w) {
        pool.emplace_back([&] {
          for (std::size_t i = next++; i < n; i = next++) {
            try {
              ScenarioConfig config = grid[i].config;
              config.job_source = std::make_shared<ps::workload::VectorJobSource>(grid[i].jobs);
              TracedScenario t = run_traced_scenario(config);
              Clock::time_point c0 = Clock::now();
              codec_bytes[i] = codec_roundtrip(grid[i], t.result, logs[i]);
              codec_s[i] = seconds_between(c0, Clock::now());
              probes[i] = t.probes;
              results[i] = std::move(t.result);
            } catch (const std::exception& e) {
              threw[i] = 1;
              logs[i].fail(grid[i].label + " threw: " + e.what());
            }
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
    r.wall_s = seconds_between(t0, Clock::now());
    LayerProbes total;
    std::vector<double> walls;
    double codec_total = 0.0;
    std::uint64_t bytes_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::string& f : logs[i].failures) r.log.fail(f);
      total.add(probes[i]);
      if (!threw[i]) walls.push_back(probes[i].wall_s);
      codec_total += codec_s[i];
      bytes_total += codec_bytes[i];
      check_live_invariants(probes[i], grid[i].label, r.log);
    }
    layer_metrics(r, total, reg, walls);
    r.metric("dist.codec_s", codec_total);
    r.metric("dist.codec_bytes", static_cast<double>(bytes_total));
  } else {
    std::vector<ScenarioConfig> configs;
    std::vector<std::shared_ptr<TimingSource>> sources;
    for (const GridCell& cell : grid) {
      configs.push_back(cell.config);
      sources.push_back(std::make_shared<TimingSource>(
          std::make_shared<ps::workload::VectorJobSource>(cell.jobs)));
      configs.back().job_source = sources.back();
    }
    ps::core::SweepEngine engine(threads);
    std::uint64_t allocs0 = alloc_count();
    Clock::time_point t0 = Clock::now();
    try {
      results = engine.run(configs);
    } catch (const std::exception& e) {
      std::fill(threw.begin(), threw.end(), 1);
      r.log.fail(std::string("grid threw: ") + e.what());
    }
    r.wall_s = seconds_between(t0, Clock::now());
    std::uint64_t allocs = alloc_count() - allocs0;
    double setup = 0.0, submitted = 0.0, effective = 0.0, energy = 0.0;
    for (std::size_t i = 0; i < n && !threw[i]; ++i) {
      setup += seconds_between(*sources[i]->first_rewind, *sources[i]->first_pull);
      submitted += static_cast<double>(results[i].stats.submitted);
      effective += results[i].summary.effective_work_core_seconds;
      energy += results[i].summary.energy_joules;
    }
    end_to_end(r, submitted, r.wall_s, setup, peak_rss_mb(),
               static_cast<double>(allocs) / submitted, effective, energy);
  }
  std::uint64_t failed_cells = std::count(threw.begin(), threw.end(), 1);
  r.attempted += n;
  r.failed += failed_cells;
  r.notes.push_back("grid: cells attempted " + std::to_string(n) + ", threw " +
                    std::to_string(failed_cells) + ", threads " + std::to_string(threads));
  ps::rjms::Controller::Stats all;
  std::int64_t expected_all = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GridCell& cell = grid[i];
    expected_all += cell.expected;
    fingerprints[i] = ps::core::fingerprint(results[i]);
    if (threw[i]) continue;
    check_result(results[i], cell.expected, cell.label, r.log);
    check_offline_plan(results[i], cell.config.powercap, model, cell.label, r.log);
    all.submitted += results[i].stats.submitted;
    all.rejected += results[i].stats.rejected;
  }
  account_jobs(r, expected_all, all, "grid");
  r.fingerprint = grid_fingerprint(fingerprints);
  return r;
}

// --- serve: ps-serve crashed at half the documents, then --recover ----------

Round serve_round(const std::string& swf, const std::string& serve_bin,
                  const std::string& spool, bool traced) {
  Round r;
  std::int64_t expected = count_runtime_records(swf);
  // The offline replay the daemon must reproduce.
  ScenarioConfig config = replay_config(swf);
  ScenarioResult offline;
  RegistryDelta reg;
  LayerProbes probes;
  if (traced) {
    TracedScenario t = run_traced_scenario(config);
    offline = std::move(t.result);
    probes = t.probes;
    check_live_invariants(probes, "offline replay", r.log);
  } else {
    offline = ps::core::run_scenario(config);
  }
  check_result(offline, expected, "offline replay", r.log);

  // Claims are numbered over hellos and submission documents alike; the
  // clients stripe the trace round-robin and close each stripe with an eof
  // document.
  std::uint64_t docs = 2;
  for (std::int64_t stripe : {(expected + 1) / 2, expected / 2}) {
    docs += static_cast<std::uint64_t>(std::max<std::int64_t>(1, (stripe + 15) / 16));
  }
  ServeSetup setup;
  setup.serve_bin = serve_bin;
  setup.swf = swf;
  setup.spool = spool;
  setup.trace_jobs = expected;
  setup.kill_claim = docs / 2;
  setup.traced = traced;
  ServeRound s = run_serve_round(setup);
  for (const std::string& f : s.log.failures) r.log.fail(f);
  check_fingerprint(s.fingerprint, ps::core::fingerprint(offline), "recovered daemon", r.log);
  r.fingerprint = s.fingerprint;
  r.wall_s = s.measured_s;

  if (traced) {
    layer_metrics(r, probes, reg, {probes.wall_s});
    r.metric("serve.ingest_s", s.ingest_s);
    r.metric("serve.advance_s", s.advance_s);
    r.metric("serve.checkpoint_s", s.checkpoint_s);
    r.metric("serve.drain_s", s.drain_s);
    r.metric("serve.recover_s", s.recover_s);
    r.metric("serve.recover_replay_s", s.recover_replay_s);
    r.metric("serve.recovered_docs", static_cast<double>(s.recovered_docs));
    r.metric("serve.journal_bytes", static_cast<double>(s.journal_bytes));
    r.metric("serve.backpressure_stalls", static_cast<double>(s.backpressure_stalls));
    r.metric("util.spool_claims", static_cast<double>(s.spool_claims));
    r.metric("util.spool_claim_races", static_cast<double>(s.spool_claim_races));
  } else {
    double declared = std::max<double>(1.0, static_cast<double>(s.declared));
    end_to_end(r, static_cast<double>(s.admitted), s.measured_s, s.setup_s, s.peak_rss_mb,
               static_cast<double>(s.client_allocs) / declared,
               offline.summary.effective_work_core_seconds, offline.summary.energy_joules);
  }
  std::uint64_t lost =
      expected > static_cast<std::int64_t>(s.admitted)
          ? static_cast<std::uint64_t>(expected) - s.admitted
          : 0;
  r.attempted = s.docs_published + static_cast<std::uint64_t>(expected);
  r.failed = s.quarantined_docs + lost;
  r.notes.push_back("serve: documents published " + std::to_string(s.docs_published) +
                    ", quarantined " + std::to_string(s.quarantined_docs) +
                    "; jobs declared " + std::to_string(s.declared) + ", admitted " +
                    std::to_string(s.admitted) + "; killed at claim " +
                    std::to_string(setup.kill_claim));
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench replay --swf TRACE --trace 0|1\n"
               "       perfbench grid --seed N --trace 0|1\n"
               "       perfbench serve --swf TRACE --serve-bin PS_SERVE --spool DIR "
               "--trace 0|1\n"
               "       perfbench selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  auto flag = [&flags](const char* name) -> std::string {
    auto it = flags.find(name);
    if (it == flags.end()) throw std::invalid_argument(std::string("missing --") + name);
    return it->second;
  };
  try {
    if (mode == "selftest") {
      std::vector<std::string> problems = self_test();
      for (const std::string& p : problems) std::printf("self-test: %s\n", p.c_str());
      std::printf("{\"ok\":%s}\n", problems.empty() ? "true" : "false");
      return 0;
    }
    bool traced = flag("trace") == "1";
    Round round;
    if (mode == "replay") {
      round = replay_round(flag("swf"), traced);
    } else if (mode == "grid") {
      round = grid_round(std::stoull(flag("seed")), traced);
    } else if (mode == "serve") {
      round = serve_round(flag("swf"), flag("serve-bin"), flag("spool"), traced);
    } else {
      return usage();
    }
    print_round(round);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
