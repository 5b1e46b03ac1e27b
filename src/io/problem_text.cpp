#include "io/problem_text.hpp"

#include <charconv>
#include <cmath>
#include <map>
#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace rfp::io {

namespace {

/// A net or relocation weight: the whole token must be a finite number
/// >= 0, since the cost bounds of every engine assume non-negative weights.
double parseWeight(const std::string& token, int lineno, const char* what) {
  double v = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  RFP_CHECK_MSG(ec == std::errc() && ptr == end && std::isfinite(v) && v >= 0.0,
                "line " << lineno << ": " << what << " '" << token
                        << "' must be a finite number >= 0");
  return v;
}

}  // namespace

model::FloorplanProblem parseProblem(const std::string& text, const device::Device& dev) {
  model::FloorplanProblem problem(&dev);
  std::map<std::string, int> region_index;

  const auto regionOf = [&](const std::string& name, int lineno) {
    const auto it = region_index.find(name);
    RFP_CHECK_MSG(it != region_index.end(),
                  "line " << lineno << ": unknown region '" << name << "'");
    return it->second;
  };

  int lineno = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = str::trim(raw.substr(0, raw.find('#')));
    if (line.empty()) continue;
    const std::vector<std::string> tok = str::splitWhitespace(line);
    const std::string& kw = tok[0];

    if (kw == "problem") {
      RFP_CHECK_MSG(tok.size() == 2, "line " << lineno << ": problem expects one name");
      // The name is informational only; the model does not store it.
    } else if (kw == "region") {
      RFP_CHECK_MSG(tok.size() >= 3,
                    "line " << lineno << ": region <name> <TYPE>=<tiles> [...]");
      RFP_CHECK_MSG(!region_index.count(tok[1]),
                    "line " << lineno << ": duplicate region '" << tok[1] << "'");
      std::vector<int> tiles(static_cast<std::size_t>(dev.numTileTypes()), 0);
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const auto kv = str::split(tok[i], '=');
        RFP_CHECK_MSG(kv.size() == 2, "line " << lineno << ": bad requirement '" << tok[i] << "'");
        const int type = dev.tileTypeId(kv[0]);
        RFP_CHECK_MSG(type >= 0, "line " << lineno << ": unknown tile type '" << kv[0]
                                         << "' on device '" << dev.name() << "'");
        tiles[static_cast<std::size_t>(type)] = std::stoi(kv[1]);
      }
      region_index[tok[1]] = problem.addRegion(model::RegionSpec{tok[1], std::move(tiles)});
    } else if (kw == "net") {
      RFP_CHECK_MSG(tok.size() >= 4,
                    "line " << lineno << ": net <weight> <region> <region> [...]");
      model::Net net;
      net.weight = parseWeight(tok[1], lineno, "net weight");
      net.name = "net_" + std::to_string(problem.nets().size());
      for (std::size_t i = 2; i < tok.size(); ++i)
        net.regions.push_back(regionOf(tok[i], lineno));
      problem.addNet(std::move(net));
    } else if (kw == "relocate") {
      RFP_CHECK_MSG(tok.size() >= 3,
                    "line " << lineno << ": relocate <region> count=<k> [soft] [weight=<w>]");
      model::RelocationRequest req;
      req.region = regionOf(tok[1], lineno);
      bool have_count = false;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        if (tok[i] == "soft") {
          req.hard = false;
          continue;
        }
        const auto kv = str::split(tok[i], '=');
        RFP_CHECK_MSG(kv.size() == 2, "line " << lineno << ": bad attribute '" << tok[i] << "'");
        if (kv[0] == "count") {
          req.count = std::stoi(kv[1]);
          have_count = true;
        } else if (kv[0] == "weight") {
          req.weight = parseWeight(kv[1], lineno, "relocation weight");
        } else {
          RFP_CHECK_MSG(false, "line " << lineno << ": unknown attribute '" << kv[0] << "'");
        }
      }
      RFP_CHECK_MSG(have_count, "line " << lineno << ": relocate needs count=<k>");
      problem.addRelocation(req);
    } else if (kw == "objective") {
      RFP_CHECK_MSG(tok.size() >= 2, "line " << lineno << ": objective needs a mode");
      if (tok[1] == "lexicographic") {
        RFP_CHECK_MSG(tok.size() == 2, "line " << lineno << ": objective lexicographic");
        problem.setLexicographic(true);
      } else if (tok[1] == "weighted") {
        model::ObjectiveWeights w;
        for (std::size_t i = 2; i < tok.size(); ++i) {
          const auto kv = str::split(tok[i], '=');
          RFP_CHECK_MSG(kv.size() == 2, "line " << lineno << ": bad weight '" << tok[i] << "'");
          const double v = std::stod(kv[1]);
          if (kv[0] == "q1")
            w.q1_wirelength = v;
          else if (kv[0] == "q2")
            w.q2_perimeter = v;
          else if (kv[0] == "q3")
            w.q3_wasted = v;
          else if (kv[0] == "q4")
            w.q4_relocation = v;
          else
            RFP_CHECK_MSG(false, "line " << lineno << ": unknown weight '" << kv[0] << "'");
        }
        problem.setWeights(w);
        problem.setLexicographic(false);
      } else {
        RFP_CHECK_MSG(false, "line " << lineno << ": objective must be 'lexicographic' or "
                                        "'weighted', got '" << tok[1] << "'");
      }
    } else {
      RFP_CHECK_MSG(false, "line " << lineno << ": unknown keyword '" << kw << "'");
    }
  }

  const std::string structural = problem.validateStructure();
  RFP_CHECK_MSG(structural.empty(), "parsed problem is invalid: " << structural);
  return problem;
}

std::string formatProblem(const model::FloorplanProblem& problem) {
  const device::Device& dev = problem.dev();
  std::ostringstream out;
  out << "problem parsed\n";
  for (int n = 0; n < problem.numRegions(); ++n) {
    out << "region " << problem.region(n).name;
    for (int t = 0; t < dev.numTileTypes(); ++t)
      if (problem.region(n).required(t) > 0)
        out << ' ' << dev.tileType(t).name << '=' << problem.region(n).required(t);
    out << '\n';
  }
  for (const model::Net& net : problem.nets()) {
    out << "net " << str::formatDouble(net.weight, 6);
    for (const int r : net.regions) out << ' ' << problem.region(r).name;
    out << '\n';
  }
  for (const model::RelocationRequest& req : problem.relocations()) {
    out << "relocate " << problem.region(req.region).name << " count=" << req.count;
    if (!req.hard) out << " soft weight=" << str::formatDouble(req.weight, 6);
    out << '\n';
  }
  if (problem.lexicographic()) {
    out << "objective lexicographic\n";
  } else {
    const model::ObjectiveWeights& w = problem.weights();
    out << "objective weighted q1=" << str::formatDouble(w.q1_wirelength, 6)
        << " q2=" << str::formatDouble(w.q2_perimeter, 6)
        << " q3=" << str::formatDouble(w.q3_wasted, 6)
        << " q4=" << str::formatDouble(w.q4_relocation, 6) << '\n';
  }
  return out.str();
}

}  // namespace rfp::io
