// One benchmark run (closed loop over a workload's request list) and the
// reference recorder.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 0;       ///< nominal run length; never used to time-box
  bool trace = false;       ///< per-layer run instead of the end-to-end run
  std::string refs_dir;     ///< directory holding <workload>.tsv
  std::string trace_out;    ///< Chrome trace path (traced runs; empty: none)
};

/// Runs the workload and prints the report to stderr and the result JSON as
/// the last line of stdout. Returns the process exit code. Throws on set-up
/// errors (stale references, thread guard).
int runWorkload(const RunOptions& options);

/// Re-records refs/<workload>.tsv. Returns the process exit code.
int recordReferences(const WorkloadSpec& spec, const std::string& refs_dir);

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int availableCpus();

}  // namespace perfbench
