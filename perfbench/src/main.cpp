// rfp_perfbench: the repository's end-to-end benchmark. See ../README.md.
//
//   rfp_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     [--refs DIR] [--trace-out FILE]
//   rfp_perfbench record --workload W [--refs DIR]
//   rfp_perfbench self-test
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runner.hpp"
#include "workloads.hpp"

namespace perfbench {
int selfTest();  // selftest.cpp
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rfp_perfbench run --workload W --seed N --seconds S --trace 0|1 "
               "[--refs DIR] [--trace-out FILE]\n"
               "       rfp_perfbench record --workload W [--refs DIR]\n"
               "       rfp_perfbench self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // glibc adapts its mmap and trim thresholds to the first large frees, so
  // the heap it keeps, and with it peak RSS, depends on allocation timing
  // (gen-milp read 15-26 MiB from run to run on a 4-vCPU x86 VM). Fixing
  // both thresholds high, where adaptation takes them anyway, keeps the
  // allocator's behaviour the same in every run, so peak_rss_mib repeats.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  RunOptions opt;
  opt.refs_dir = "perfbench/refs";
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") workload = val;
    else if (arg == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(val.c_str(), nullptr);
    else if (arg == "--trace") opt.trace = val == "1";
    else if (arg == "--refs") opt.refs_dir = val;
    else if (arg == "--trace-out") opt.trace_out = val;
    else return usage();
  }
  try {
    if (cmd == "self-test") return selfTest();
    opt.spec = findWorkload(workload);
    if (!opt.spec) {
      std::fprintf(stderr, "rfp_perfbench: unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    if (cmd == "run") return runWorkload(opt);
    if (cmd == "record") return recordReferences(*opt.spec, opt.refs_dir);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfp_perfbench: %s\n", e.what());
    return 1;
  }
}
