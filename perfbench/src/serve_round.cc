#include "serve_round.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "obs/registry.h"
#include "probes.h"
#include "serve/journal.h"
#include "serve/load_gen.h"
#include "serve/protocol.h"
#include "util/spool.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kBatchJobs = 16;  // small documents: ingest and journal dominate
constexpr double kChildTimeoutS = 150.0;

std::string client_name(int i) { return "c" + std::to_string(i); }

/// A child process with its own stdout/stderr files.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& out,
        const std::string& err) {
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
    posix_spawn_file_actions_addopen(&actions, 2, err.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
    int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  /// Non-blocking reap; true once the child has ended.
  bool poll() {
    if (pid_ <= 0) return true;
    int status = 0;
    rusage usage{};
    pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r != pid_) return false;
    pid_ = -1;
    code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    maxrss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return true;
  }
  /// Waits for the end (SIGKILL after the timeout); returns the exit code
  /// (128 + signal when killed by one, -1 on timeout).
  int wait(double timeout_s) {
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (!poll()) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        while (!poll()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        code_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return code_;
  }
  double maxrss_mb() const { return maxrss_mb_; }

 private:
  pid_t pid_ = -1;
  int code_ = -1;
  double maxrss_mb_ = 0.0;
};

/// The load clients, as threads; joined on every path.
class Clients {
 public:
  Clients(const std::string& spool, const std::string& swf) {
    for (int i = 0; i < kClients; ++i) {
      ps::serve::LoadOptions options;
      options.spool = spool;
      options.swf = swf;
      options.client = client_name(i);
      options.client_index = i;
      options.client_count = kClients;
      options.batch_jobs = kBatchJobs;
      threads_.emplace_back([this, options] {
        try {
          ps::serve::LoadReport report = ps::serve::run_load_client(options);
          std::lock_guard<std::mutex> lock(mutex_);
          docs_ += report.docs;
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mutex_);
          errors_.push_back(options.client + ": " + e.what());
        }
      });
    }
  }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;
  ~Clients() { join(); }
  void join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  std::uint64_t docs() {
    std::lock_guard<std::mutex> lock(mutex_);
    return docs_;
  }
  std::vector<std::string> errors() {
    std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
  }

 private:
  std::mutex mutex_;
  std::uint64_t docs_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::thread> threads_;
};

bool both_present(const std::string& dir) {
  for (int i = 0; i < kClients; ++i) {
    if (!ps::util::path_exists(dir + "/" + ps::serve::hello_file_name(client_name(i)))) {
      return false;
    }
  }
  return true;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

std::uint64_t dir_bytes(const std::string& dir, const std::string& suffix) {
  std::uint64_t bytes = 0;
  if (!ps::util::path_exists(dir)) return 0;
  for (const std::string& name : ps::util::list_files(dir, suffix)) {
    bytes += file_size(dir + "/" + name);
  }
  return bytes;
}

std::map<std::string, std::string> parse_report(const std::string& text) {
  std::map<std::string, std::string> fields;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    std::size_t space = line.find(' ');
    if (space != std::string::npos) fields[line.substr(0, space)] = line.substr(space + 1);
    pos = end + 1;
  }
  return fields;
}

std::uint64_t field_u64(const std::map<std::string, std::string>& report,
                        const std::string& key, CheckLog& log) {
  auto it = report.find(key);
  if (it == report.end()) {
    log.fail("serve report lacks " + key);
    return 0;
  }
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Seconds per span name in a Chrome trace-event file.
std::map<std::string, double> span_seconds(const std::string& json) {
  std::map<std::string, double> seconds;
  const std::string name_key = "{\"name\":\"";
  const std::string dur_key = "\"dur\":";
  std::size_t pos = 0;
  while ((pos = json.find(name_key, pos)) != std::string::npos) {
    std::size_t start = pos + name_key.size();
    std::size_t quote = json.find('"', start);
    std::size_t dur = json.find(dur_key, quote);
    if (quote == std::string::npos || dur == std::string::npos) break;
    seconds[json.substr(start, quote - start)] +=
        std::strtod(json.c_str() + dur + dur_key.size(), nullptr) / 1e6;
    pos = dur;
  }
  return seconds;
}

}  // namespace

ServeRound run_serve_round(const ServeSetup& setup) {
  ServeRound round;
  CheckLog& log = round.log;
  ps::util::remove_tree(setup.spool);
  ps::util::ensure_dir(setup.spool);
  const std::string out_dir = setup.spool + ".out";
  ps::util::remove_tree(out_dir);
  ps::util::ensure_dir(out_dir);

  std::vector<std::string> args = {
      setup.serve_bin, "--spool",  setup.spool, "--expect-clients",
      std::to_string(kClients), "--mode", "det", "--racks", "2", "--policy", "mix",
      "--lambda", "0.5", "--stats-ms", "0", "--faults",
      "seed=1,rate=1,max_attempt=0,sites=die_after_claim,shards=" +
          std::to_string(setup.kill_claim)};

  std::uint64_t allocs0 = alloc_count();
  Clients clients(setup.spool, setup.swf);
  // The clients read and stripe the trace before they say hello; the
  // daemon starts once both hellos wait in the inbox, so its set-up time
  // does not include the clients' trace parsing.
  const std::string inbox = ps::serve::inbox_dir(setup.spool);
  Clock::time_point hello_deadline = Clock::now() + std::chrono::seconds(60);
  while (!both_present(inbox) && clients.errors().empty() && Clock::now() < hello_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (!both_present(inbox)) {
    log.fail("the load clients never published their hellos");
    ps::util::remove_tree(setup.spool);  // stops clients still publishing
    clients.join();
    for (const std::string& error : clients.errors()) log.fail("load client " + error);
    return round;
  }

  Clock::time_point t0 = Clock::now();
  Child gen0(args, out_dir + "/gen0.out", out_dir + "/gen0.err");
  const std::string journal = ps::serve::journal_dir(setup.spool);
  while (!both_present(journal) && !gen0.poll() &&
         Clock::now() < t0 + std::chrono::seconds(60)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Clock::time_point t_hello = Clock::now();
  round.setup_s = seconds_between(t0, t_hello);
  int code0 = gen0.wait(kChildTimeoutS);
  if (code0 != 128 + SIGKILL) {
    log.fail("generation 0 exited with " + std::to_string(code0) +
             ", not by the injected SIGKILL: " +
             ps::util::read_file(out_dir + "/gen0.err"));
  }
  round.journal_bytes = dir_bytes(journal, "") +
                        dir_bytes(ps::serve::checkpoints_dir(setup.spool), ".seg");

  std::vector<std::string> args1 = args;
  args1.push_back("--recover");
  const std::string trace_path = out_dir + "/gen1.trace.json";
  if (setup.traced) {
    args1.insert(args1.end(), {"--trace-out", trace_path, "--telemetry-seconds", "3600"});
  }
  Clock::time_point t1 = Clock::now();
  Child gen1(args1, out_dir + "/gen1.out", out_dir + "/gen1.err");
  int code1 = gen1.wait(kChildTimeoutS);
  Clock::time_point t_end = Clock::now();
  if (code1 != 0) {
    log.fail("recovering generation exited with " + std::to_string(code1) + ": " +
             ps::util::read_file(out_dir + "/gen1.err"));
    // Without a daemon the clients would wait out their gate patience on
    // every document; removing the spool makes them fail fast instead.
    ps::util::remove_tree(setup.spool);
  }
  clients.join();
  round.client_allocs = alloc_count() - allocs0;
  for (const std::string& error : clients.errors()) log.fail("load client " + error);

  round.recover_s = seconds_between(t1, t_end);
  round.measured_s = seconds_between(t_hello, t_end);
  round.peak_rss_mb = std::max(gen0.maxrss_mb(), gen1.maxrss_mb());
  round.docs_published = clients.docs();
  if (code1 != 0) return round;

  std::map<std::string, std::string> report =
      parse_report(ps::util::read_file(out_dir + "/gen1.out"));
  round.declared = field_u64(report, "jobs_declared", log);
  round.admitted = field_u64(report, "admitted", log);
  round.quarantined_docs = field_u64(report, "quarantined_docs", log);
  round.recovered_docs = field_u64(report, "recovered_docs", log);
  round.backpressure_stalls = field_u64(report, "backpressure_stalls", log);
  auto fp = report.find("fingerprint");
  if (fp == report.end() || fp->second.size() != 16 ||
      fp->second.find_first_not_of("0123456789abcdef") != std::string::npos) {
    log.fail("serve report lacks a fingerprint");
  } else {
    round.fingerprint = std::strtoull(fp->second.c_str(), nullptr, 16);
  }
  if (static_cast<std::int64_t>(round.declared) != setup.trace_jobs) {
    log.fail("clients declared " + std::to_string(round.declared) + " jobs, the trace holds " +
             std::to_string(setup.trace_jobs));
  }
  if (round.admitted != round.declared) {
    log.fail("daemon admitted " + std::to_string(round.admitted) + " of " +
             std::to_string(round.declared) + " declared jobs");
  }
  if (round.recovered_docs == 0) log.fail("--recover replayed no documents");

  if (setup.traced) {
    std::map<std::string, double> spans = span_seconds(ps::util::read_file(trace_path));
    round.ingest_s = spans["serve.ingest.doc"];
    round.advance_s = spans["serve.advance"];
    round.checkpoint_s = spans["serve.checkpoint"];
    round.drain_s = spans["serve.drain"];
    round.recover_replay_s = spans["serve.recover.replay"];
    const std::string tele = setup.spool + "/telemetry";
    std::vector<std::string> docs = ps::util::list_files(tele);
    if (docs.empty()) {
      log.fail("recovering generation wrote no telemetry");
    } else {
      std::sort(docs.begin(), docs.end());
      ps::obs::Snapshot snap =
          ps::obs::parse_snapshot(ps::util::read_file(tele + "/" + docs.back()));
      for (const auto& counter : snap.counters) {
        if (counter.name == "spool.claims") round.spool_claims = counter.value;
        if (counter.name == "spool.claim_races") round.spool_claim_races = counter.value;
      }
    }
  }
  return round;
}

}  // namespace perfbench
