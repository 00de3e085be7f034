// One round of the serve-crash-recover workload: ps-serve in its own
// process, two load clients as threads of this process, a fault-injected
// SIGKILL of generation 0, and a --recover generation that drains the rest.
#pragma once

#include <cstdint>
#include <string>

#include "checks.h"

namespace perfbench {

struct ServeSetup {
  std::string serve_bin;
  std::string swf;
  std::string spool;       ///< created fresh, removed by the caller
  std::int64_t trace_jobs = 0;  ///< runtime > 0 records of the SWF
  std::uint64_t kill_claim = 0; ///< claim ordinal generation 0 dies after
  bool traced = false;     ///< generation 1 writes spans and telemetry
};

struct ServeRound {
  CheckLog log;
  double setup_s = 0.0;     ///< gen-0 launch until it holds both hellos
  double measured_s = 0.0;  ///< both hellos held until gen-1's final report
  double recover_s = 0.0;   ///< gen-1 launch until its final report
  double peak_rss_mb = 0.0; ///< max over both generations
  std::uint64_t fingerprint = 0;
  std::uint64_t declared = 0;
  std::uint64_t admitted = 0;
  std::uint64_t docs_published = 0;
  std::uint64_t quarantined_docs = 0;
  std::uint64_t recovered_docs = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t client_allocs = 0;
  // Generation 1's spans and telemetry (traced rounds only; generation 0
  // dies by SIGKILL before it could write either).
  double ingest_s = 0.0;
  double advance_s = 0.0;
  double checkpoint_s = 0.0;
  double drain_s = 0.0;
  double recover_replay_s = 0.0;
  std::uint64_t spool_claims = 0;
  std::uint64_t spool_claim_races = 0;
};

ServeRound run_serve_round(const ServeSetup& setup);

}  // namespace perfbench
