// Random well-formed Micro-C source programs shared by the fuzz suite and
// the interpreter golden-outcome test: nested control flow, bounded
// loops (loop counters always terminate) and global memory traffic.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace lnic::microc::fuzz {

// Emits a random arithmetic expression over the in-scope variables.
inline std::string random_expr(Rng& rng, const std::vector<std::string>& vars,
                               int depth) {
  if (depth <= 0 || rng.next_below(3) == 0) {
    if (!vars.empty() && rng.next_bool(0.6)) {
      return vars[rng.next_below(vars.size())];
    }
    return std::to_string(rng.next_below(100) + 1);
  }
  static const char* ops[] = {"+", "-", "*", "&", "|", "^"};
  return "(" + random_expr(rng, vars, depth - 1) + " " +
         ops[rng.next_below(6)] + " " + random_expr(rng, vars, depth - 1) +
         ")";
}

// Generates a random function `f` with nested control flow and bounded
// loops over a 256-byte global.
inline std::string random_program(Rng& rng) {
  std::ostringstream out;
  out << "global u8 mem[256];\n";
  out << "int f() {\n";
  std::vector<std::string> vars;
  const int nvars = 2 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nvars; ++i) {
    const std::string name = "v" + std::to_string(i);
    out << "  var " << name << " = " << random_expr(rng, vars, 2) << ";\n";
    vars.push_back(name);
  }
  const int stmts = 3 + static_cast<int>(rng.next_below(6));
  for (int s = 0; s < stmts; ++s) {
    switch (rng.next_below(5)) {
      case 0:
        out << "  " << vars[rng.next_below(vars.size())] << " = "
            << random_expr(rng, vars, 2) << ";\n";
        break;
      case 1:
        out << "  if (" << random_expr(rng, vars, 1) << " % 2 == 0) { "
            << vars[rng.next_below(vars.size())] << " += "
            << random_expr(rng, vars, 1) << "; } else { "
            << vars[rng.next_below(vars.size())] << " ^= 7; }\n";
        break;
      case 2: {
        const std::string loop_var = "i" + std::to_string(s);
        out << "  for (var " << loop_var << " = 0; " << loop_var << " < "
            << (1 + rng.next_below(8)) << "; " << loop_var << " += 1) { "
            << vars[rng.next_below(vars.size())] << " += " << loop_var
            << "; }\n";
        break;
      }
      case 3:
        out << "  store8(mem, (" << random_expr(rng, vars, 1)
            << ") % 31 * 8, " << vars[rng.next_below(vars.size())] << ");\n";
        break;
      default:
        out << "  " << vars[rng.next_below(vars.size())]
            << " = load8(mem, (" << random_expr(rng, vars, 1)
            << ") % 31 * 8);\n";
        break;
    }
  }
  out << "  var acc = 0;\n";
  for (const auto& v : vars) out << "  acc ^= " << v << ";\n";
  out << "  resp_word(acc);\n  return acc;\n}\n";
  return out.str();
}

/// Seed of the RandomSourceTest case `param` (shared so the golden test
/// replays exactly the fuzz suite's programs).
inline std::uint64_t random_program_seed(int param) {
  return static_cast<std::uint64_t>(param) * 104729 + 7;
}

}  // namespace lnic::microc::fuzz
