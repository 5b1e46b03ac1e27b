#include "device/parser.hpp"

#include <map>
#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace rfp::device {

Device parseDevice(const std::string& text) {
  std::string name = "unnamed";
  int rows = -1;
  std::vector<TileType> types;
  std::map<char, int> char_to_type;
  std::string columns;
  struct Forbidden {
    Rect r;
    std::string label;
  };
  std::vector<Forbidden> forbidden;

  int lineno = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = str::trim(raw.substr(0, raw.find('#')));
    if (line.empty()) continue;
    const std::vector<std::string> tok = str::splitWhitespace(line);
    const std::string& kw = tok[0];

    if (kw == "device") {
      RFP_CHECK_MSG(tok.size() == 2, "line " << lineno << ": device expects one name");
      name = tok[1];
    } else if (kw == "rows") {
      RFP_CHECK_MSG(tok.size() == 2, "line " << lineno << ": rows expects one integer");
      rows = str::parseInt(tok[1], 1, str::kMaxCount, lineno, "rows");
    } else if (kw == "tiletype") {
      RFP_CHECK_MSG(tok.size() >= 4 && tok[1].size() == 1,
                    "line " << lineno << ": tiletype <char> <name> frames=<n> ...");
      TileType t;
      t.name = tok[2];
      for (std::size_t i = 3; i < tok.size(); ++i) {
        const auto kv = str::split(tok[i], '=');
        RFP_CHECK_MSG(kv.size() == 2, "line " << lineno << ": bad attribute '" << tok[i] << "'");
        if (kv[0] == "frames")
          t.frames = str::parseInt(kv[1], 1, str::kMaxCount, lineno, "frames");
        else
          t.resources[kv[0]] = str::parseInt(kv[1], 0, str::kMaxCount, lineno, kv[0] + " count");
      }
      RFP_CHECK_MSG(t.frames > 0, "line " << lineno << ": tiletype needs frames=<n> > 0");
      RFP_CHECK_MSG(!char_to_type.count(tok[1][0]),
                    "line " << lineno << ": duplicate tiletype char '" << tok[1] << "'");
      char_to_type[tok[1][0]] = static_cast<int>(types.size());
      types.push_back(std::move(t));
    } else if (kw == "columns") {
      RFP_CHECK_MSG(tok.size() == 2, "line " << lineno << ": columns expects one pattern");
      columns = tok[1];
    } else if (kw == "forbidden") {
      RFP_CHECK_MSG(tok.size() == 5 || tok.size() == 6,
                    "line " << lineno << ": forbidden <x> <y> <w> <h> [label]");
      const auto coord = [&](std::size_t i, const char* what) {
        return str::parseInt(tok[i], 0, str::kMaxCount, lineno, std::string("forbidden ") + what);
      };
      Forbidden f;
      f.r = Rect{coord(1, "x"), coord(2, "y"), coord(3, "w"), coord(4, "h")};
      if (tok.size() == 6) f.label = tok[5];
      forbidden.push_back(std::move(f));
    } else {
      RFP_CHECK_MSG(false, "line " << lineno << ": unknown keyword '" << kw << "'");
    }
  }

  RFP_CHECK_MSG(rows > 0, "device text missing 'rows'");
  RFP_CHECK_MSG(!columns.empty(), "device text missing 'columns'");
  RFP_CHECK_MSG(!types.empty(), "device text missing 'tiletype' lines");

  std::vector<int> col_types;
  col_types.reserve(columns.size());
  for (const char c : columns) {
    const auto it = char_to_type.find(c);
    RFP_CHECK_MSG(it != char_to_type.end(), "columns pattern uses undeclared char '" << c << "'");
    col_types.push_back(it->second);
  }

  Device dev(name, static_cast<int>(columns.size()), rows, std::move(types),
             std::move(col_types));
  for (auto& f : forbidden) dev.addForbidden(f.r, f.label);
  return dev;
}

std::string formatDevice(const Device& dev) {
  RFP_CHECK_MSG(dev.isColumnar(), "formatDevice supports columnar devices only");
  std::ostringstream os;
  os << "device " << dev.name() << "\n";
  os << "rows " << dev.height() << "\n";
  // Assign single-character codes: first letter, disambiguated by index.
  std::vector<char> code(static_cast<std::size_t>(dev.numTileTypes()));
  for (int t = 0; t < dev.numTileTypes(); ++t) {
    char c = dev.tileType(t).name.empty() ? 'T' : dev.tileType(t).name[0];
    for (int u = 0; u < t; ++u)
      if (code[static_cast<std::size_t>(u)] == c) c = static_cast<char>('0' + t);
    code[static_cast<std::size_t>(t)] = c;
    os << "tiletype " << c << ' ' << dev.tileType(t).name << " frames="
       << dev.tileType(t).frames;
    for (const auto& [res, count] : dev.tileType(t).resources) os << ' ' << res << '=' << count;
    os << "\n";
  }
  os << "columns ";
  for (int x = 0; x < dev.width(); ++x)
    os << code[static_cast<std::size_t>(dev.columnType(x))];
  os << "\n";
  for (std::size_t i = 0; i < dev.forbidden().size(); ++i) {
    const Rect& r = dev.forbidden()[i];
    os << "forbidden " << r.x << ' ' << r.y << ' ' << r.w << ' ' << r.h << ' '
       << dev.forbiddenLabels()[i] << "\n";
  }
  return os.str();
}

}  // namespace rfp::device
