#include "reference.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
constexpr const char* kColumns = "seed\thash\tstatus\twaste\twire_length\tnodes\tseconds\tmilp_o";
}  // namespace

std::vector<Reference> loadReferences(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file " + path);
  std::vector<Reference> rows;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line == kColumns) continue;
    std::istringstream fields(line);
    Reference r;
    std::string hash, status;
    if (!(fields >> r.seed >> hash >> status >> r.waste >> r.wire_length >> r.nodes >>
          r.seconds >> r.milp_check) ||
        (status != "optimal" && status != "infeasible"))
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": malformed row");
    r.hash = std::stoull(hash, nullptr, 16);
    r.feasible = status == "optimal";
    rows.push_back(r);
  }
  return rows;
}

void writeReferences(const std::string& path, const std::string& workload,
                     const std::vector<Reference>& rows) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference file " + path);
  out << "# Reference answers for perfbench workload " << workload << ".\n"
      << "# Recorded by `python3 perfbench/run.py --record " << workload << "`: one-thread\n"
      << "# exact search, no deadline. milp_o: MILP-O agreed where it proved, else unproved.\n"
      << kColumns << "\n";
  char buf[256];
  for (const Reference& r : rows) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "\t%016" PRIx64 "\t%s\t%ld\t%.17g\t%ld\t%.6f\t%s\n",
                  r.seed, r.hash, r.feasible ? "optimal" : "infeasible", r.waste, r.wire_length,
                  r.nodes, r.seconds, r.milp_check.c_str());
    out << buf;
  }
}

}  // namespace perfbench
