// atlas-lint: run the verify/ invariant checkers over QASM files and
// report diagnostics with file:line provenance.
//
//   atlas-lint file.qasm...                 circuit + noise checks
//   atlas-lint --level boundaries ...       structural checks only
//   atlas-lint --shape 4,1,1 ...            also stage/kernelize under
//                                           the given L,R,G machine
//                                           shape and verify the plan
//   atlas-lint --metrics-catalog FILE       check an obs name catalog
//                                           (src/obs/names.h) for
//                                           duplicate name strings
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 usage/parse/IO error.
//
// Parser errors already carry "line N:" prefixes; lint rewrites both
// them and verifier gate indices (via qasm::NoisyParse::gate_lines)
// into the editor-clickable "<file>:<line>:" form.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/parse.h"
#include "core/pipeline.h"
#include "qasm/qasm.h"
#include "verify/verify.h"

namespace {

using atlas::verify::VerifyLevel;

struct Options {
  VerifyLevel level = VerifyLevel::paranoid;
  bool have_shape = false;
  atlas::staging::MachineShape shape;
  int opt_level = 0;
  std::vector<std::string> files;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: atlas-lint [--level boundaries|paranoid] [--shape L,R,G]\n"
      "                  [--opt 0|1|2] <file.qasm>...\n"
      "       atlas-lint --metrics-catalog <names.h>\n"
      "\n"
      "Checks each QASM file against the engine's IR invariants\n"
      "(docs/VERIFY.md) and prints diagnostics as <file>:<line>: code:\n"
      "message. --shape additionally stages and kernelizes the circuit\n"
      "under an L local / R regional / G global qubit machine shape and\n"
      "verifies the resulting plan (L+R+G must equal the circuit's qubit\n"
      "count).\n");
}

bool parse_level(const std::string& s, VerifyLevel& out) {
  if (s == "boundaries") out = VerifyLevel::boundaries;
  else if (s == "paranoid") out = VerifyLevel::paranoid;
  else return false;
  return true;
}

/// "L,R,G": three whole decimal qubit counts, each in [0, 63].
bool parse_shape(const std::string& s, atlas::staging::MachineShape& out) {
  int* fields[] = {&out.num_local, &out.num_regional, &out.num_global};
  std::size_t begin = 0;
  for (int k = 0; k < 3; ++k) {
    const std::size_t end = k < 2 ? s.find(',', begin) : s.size();
    if (end == std::string::npos) return false;
    const auto value = atlas::parse_uint(
        std::string_view(s).substr(begin, end - begin), 0, 63);
    if (!value) return false;
    *fields[k] = static_cast<int>(*value);
    begin = end + 1;
  }
  return true;
}

/// "line 12: bad thing" -> prints "file.qasm:12: <tag>: bad thing";
/// messages without the parser's line prefix fall back to "file.qasm:".
void print_located(const std::string& file, const std::string& message,
                   const char* tag) {
  int line = 0;
  if (std::sscanf(message.c_str(), "line %d:", &line) == 1) {
    const std::size_t colon = message.find(':');
    std::printf("%s:%d: %s:%s\n", file.c_str(), line, tag,
                message.c_str() + colon + 1);
  } else {
    std::printf("%s: %s: %s\n", file.c_str(), tag, message.c_str());
  }
}

/// Prints one verifier diagnostic, resolving its gate index to a
/// source line when the provenance table covers it.
void print_diag(const std::string& file, const std::vector<int>& gate_lines,
                const atlas::verify::VerifyDiagnostic& d) {
  if (d.gate >= 0 && d.gate < static_cast<int>(gate_lines.size())) {
    std::printf("%s:%d: %s: %s\n", file.c_str(),
                gate_lines[static_cast<std::size_t>(d.gate)],
                atlas::verify::code_name(d.code), d.message.c_str());
  } else {
    std::printf("%s: %s\n", file.c_str(), d.to_string().c_str());
  }
}

/// Lints one file; returns the number of diagnostics (parse failures
/// count as one and short-circuit).
int lint_file(const std::string& file, const Options& opts) {
  std::ifstream in(file);
  if (!in.good()) {
    std::printf("%s: error: cannot open file\n", file.c_str());
    return 1;
  }
  std::ostringstream os;
  os << in.rdbuf();

  atlas::qasm::NoisyParse parsed;
  try {
    parsed = atlas::qasm::parse_with_noise(os.str());
    parsed.circuit.set_name(file);
  } catch (const atlas::Error& e) {
    print_located(file, e.what(), "parse error");
    return 1;
  }

  int findings = 0;
  const atlas::verify::VerifyReport circuit_report =
      atlas::verify::verify_circuit(parsed.circuit, opts.level);
  for (const auto& d : circuit_report.diags) print_diag(file, parsed.gate_lines, d);
  findings += static_cast<int>(circuit_report.diags.size());

  if (!parsed.noise.empty()) {
    const atlas::verify::VerifyReport noise_report =
        atlas::verify::verify_noise_model(
            parsed.noise, parsed.circuit.num_qubits(), opts.level);
    for (const auto& d : noise_report.diags)
      print_diag(file, parsed.gate_lines, d);
    findings += static_cast<int>(noise_report.diags.size());
  }

  if (opts.have_shape && findings == 0) {
    if (opts.shape.total() != parsed.circuit.num_qubits()) {
      std::printf("%s: error: --shape totals %d qubits, circuit has %d\n",
                  file.c_str(), opts.shape.total(),
                  parsed.circuit.num_qubits());
      return findings + 1;
    }
    atlas::CompilePipeline::Config pc;
    pc.shape = opts.shape;
    pc.opt.level = opts.opt_level;
    pc.verify = opts.level;
    const atlas::CompilePipeline pipeline(pc);
    try {
      atlas::CompileDiagnostics diag;
      pipeline.build_plan(pipeline.optimize(parsed.circuit), &diag);
      // Verifier findings surface on `diag` right before build_plan
      // throws; a clean return means the plan passed.
      for (const auto& d : diag.verify) print_diag(file, parsed.gate_lines, d);
      findings += static_cast<int>(diag.verify.size());
    } catch (const atlas::Error& e) {
      print_located(file, e.what(), "plan error");
      ++findings;
    }
  }
  return findings;
}

/// Checks an obs name catalog (src/obs/names.h shape: `constexpr char
/// kName[] = "string";`, possibly wrapped) for two constants carrying
/// the same string — the way a copy-pasted registration ends up
/// double-counting under one name. Returns 0 clean, 1 on duplicates,
/// 2 on IO error.
int check_metrics_catalog(const std::string& file) {
  std::ifstream in(file);
  if (!in.good()) {
    std::fprintf(stderr, "atlas-lint: cannot open %s\n", file.c_str());
    return 2;
  }
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();

  // name string -> line of first definition
  std::map<std::string, int> first_seen;
  int duplicates = 0;
  std::size_t pos = 0;
  while ((pos = text.find("constexpr char", pos)) != std::string::npos) {
    const std::size_t open = text.find('"', pos);
    pos += std::strlen("constexpr char");
    if (open == std::string::npos) break;
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos) break;
    const std::string name = text.substr(open + 1, close - open - 1);
    const int line = 1 + static_cast<int>(
        std::count(text.begin(),
                   text.begin() + static_cast<std::ptrdiff_t>(open), '\n'));
    const auto [it, inserted] = first_seen.emplace(name, line);
    if (!inserted) {
      std::printf("%s:%d: duplicate-metric-name: \"%s\" already defined at "
                  "line %d\n",
                  file.c_str(), line, name.c_str(), it->second);
      ++duplicates;
    }
  }
  if (first_seen.empty()) {
    std::fprintf(stderr,
                 "atlas-lint: %s contains no `constexpr char ... = \"...\"` "
                 "entries — wrong file?\n",
                 file.c_str());
    return 2;
  }
  if (duplicates == 0) {
    std::printf("%s: OK (%zu names)\n", file.c_str(), first_seen.size());
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--metrics-catalog" && i + 1 < argc) {
      return check_metrics_catalog(argv[i + 1]);
    } else if (arg == "--level" && i + 1 < argc) {
      if (!parse_level(argv[++i], opts.level)) {
        std::fprintf(stderr, "atlas-lint: bad --level '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--shape" && i + 1 < argc) {
      if (!parse_shape(argv[++i], opts.shape)) {
        std::fprintf(stderr, "atlas-lint: bad --shape '%s' (want L,R,G)\n",
                     argv[i]);
        return 2;
      }
      opts.have_shape = true;
    } else if (arg == "--opt" && i + 1 < argc) {
      opts.opt_level = atlas::parse_arg(argv[0], "--opt", argv[++i], 0, 2);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "atlas-lint: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else {
      opts.files.push_back(arg);
    }
  }
  if (opts.files.empty()) {
    usage();
    return 2;
  }

  int total = 0;
  for (const std::string& file : opts.files) {
    const int n = lint_file(file, opts);
    if (n == 0) std::printf("%s: OK\n", file.c_str());
    total += n;
  }
  return total == 0 ? 0 : 1;
}
