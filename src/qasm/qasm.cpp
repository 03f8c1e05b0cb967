#include "qasm/qasm.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <numbers>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "common/parse.h"

namespace atlas::qasm {
namespace {

/// Parses `text`, blanks around it allowed, as a non-negative decimal
/// int: a register size or a qubit index. Anything else (a sign, a
/// trailing non-digit, a value past INT_MAX) throws an invalid-argument
/// atlas::Error naming the line.
int parse_count(const std::string& text, int line_no, const char* what) {
  const std::size_t b = text.find_first_not_of(" \t");
  const std::string_view trimmed =
      b == std::string::npos
          ? std::string_view()
          : std::string_view(text).substr(
                b, text.find_last_not_of(" \t") - b + 1);
  const auto value =
      parse_uint(trimmed, 0, std::numeric_limits<int>::max());
  ATLAS_CHECK_ARG(value.has_value(), "line " << line_no << ": " << what
                                             << " '" << text
                                             << "' is not a non-negative "
                                                "integer that fits an int");
  return static_cast<int>(*value);
}

/// Recursive-descent evaluator for gate parameter expressions. Yields a
/// Param: identifiers declared via `input float` become free symbols,
/// so the result stays affine ("2*theta + pi/2"); products or quotients
/// of two symbolic subexpressions throw through Param's operators.
class ExprParser {
 public:
  ExprParser(const std::string& text,
             const std::unordered_set<std::string>& symbols)
      : text_(text), symbols_(symbols) {}

  Param parse() {
    const Param v = expr();
    skip_ws();
    ATLAS_CHECK_ARG(pos_ == text_.size(), "trailing characters in expression '"
                                          << text_ << "'");
    return v;
  }

 private:
  Param expr() {
    Param v = term();
    for (;;) {
      skip_ws();
      if (consume('+')) {
        v += term();
      } else if (consume('-')) {
        v -= term();
      } else {
        return v;
      }
    }
  }

  Param term() {
    Param v = unary();
    for (;;) {
      skip_ws();
      if (consume('*')) {
        v = v * unary();
      } else if (consume('/')) {
        v = v / unary();
      } else {
        return v;
      }
    }
  }

  Param unary() {
    skip_ws();
    if (consume('-')) return -unary();
    if (consume('+')) return unary();
    return atom();
  }

  Param atom() {
    skip_ws();
    if (consume('(')) {
      const Param v = expr();
      skip_ws();
      ATLAS_CHECK_ARG(consume(')'), "missing ')' in expression '" << text_ << "'");
      return v;
    }
    if (pos_ < text_.size() &&
        (std::isalpha(text_[pos_]) != 0 || text_[pos_] == '_')) {
      std::string ident;
      while (pos_ < text_.size() &&
             (std::isalnum(text_[pos_]) != 0 || text_[pos_] == '_'))
        ident += text_[pos_++];
      if (ident == "pi") return Param(std::numbers::pi);
      ATLAS_CHECK_ARG(symbols_.count(ident) != 0,
                  "unknown identifier '"
                      << ident
                      << "' in expression (declare it with 'input float "
                      << ident << ";')");
      return Param::symbol(ident);
    }
    std::size_t used = 0;
    const std::string rest = text_.substr(pos_);
    double v = 0;
    try {
      v = std::stod(rest, &used);
    } catch (const std::exception&) {
      throw Error("bad numeric literal in expression '" + text_ + "'",
                  ErrorCode::invalid_argument);
    }
    pos_ += used;
    return Param(v);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(text_[pos_]) != 0) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& text_;
  const std::unordered_set<std::string>& symbols_;
  std::size_t pos_ = 0;
};

Param eval_expr(const std::string& text,
                const std::unordered_set<std::string>& symbols) {
  return ExprParser(text, symbols).parse();
}

struct Statement {
  std::string name;
  std::vector<Param> params;
  std::vector<int> qubits;  // in source order
};

/// Splits "name(p1,p2) q[0], q[3];" into its parts. Returns false for
/// statements that declare nothing to execute (barrier/measure/creg...).
class LineParser {
 public:
  LineParser(const std::string& line, int line_no, const std::string& qreg,
             const std::unordered_set<std::string>& symbols)
      : line_(line), line_no_(line_no), qreg_(qreg), symbols_(symbols) {}

  Statement parse() {
    Statement st;
    st.name = ident();
    skip_ws();
    if (peek() == '(') st.params = param_list();
    st.qubits = qubit_list();
    return st;
  }

 private:
  std::string ident() {
    skip_ws();
    std::string s;
    while (pos_ < line_.size() &&
           (std::isalnum(line_[pos_]) != 0 || line_[pos_] == '_'))
      s += line_[pos_++];
    ATLAS_CHECK_ARG(!s.empty(), "line " << line_no_ << ": expected identifier");
    return s;
  }

  std::vector<Param> param_list() {
    expect('(');
    std::vector<Param> params;
    std::string current;
    int depth = 1;
    while (pos_ < line_.size() && depth > 0) {
      const char c = line_[pos_++];
      if (c == '(') {
        ++depth;
        current += c;
      } else if (c == ')') {
        --depth;
        if (depth > 0) current += c;
      } else if (c == ',' && depth == 1) {
        params.push_back(eval_expr(current, symbols_));
        current.clear();
      } else {
        current += c;
      }
    }
    ATLAS_CHECK_ARG(depth == 0, "line " << line_no_ << ": unbalanced parens");
    params.push_back(eval_expr(current, symbols_));
    return params;
  }

  std::vector<int> qubit_list() {
    std::vector<int> qubits;
    for (;;) {
      skip_ws();
      const std::string reg = ident();
      ATLAS_CHECK_ARG(reg == qreg_, "line " << line_no_ << ": unknown register '"
                                        << reg << "'");
      expect('[');
      qubits.push_back(number());
      expect(']');
      skip_ws();
      if (pos_ < line_.size() && line_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    return qubits;
  }

  int number() {
    skip_ws();
    std::string s;
    while (pos_ < line_.size() && std::isdigit(line_[pos_]) != 0)
      s += line_[pos_++];
    ATLAS_CHECK_ARG(!s.empty(), "line " << line_no_ << ": expected number");
    return parse_count(s, line_no_, "qubit index");
  }

  void expect(char c) {
    skip_ws();
    ATLAS_CHECK_ARG(pos_ < line_.size() && line_[pos_] == c,
                "line " << line_no_ << ": expected '" << c << "'");
    ++pos_;
  }

  char peek() const { return pos_ < line_.size() ? line_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < line_.size() && std::isspace(line_[pos_]) != 0) ++pos_;
  }

  const std::string& line_;
  std::size_t pos_ = 0;
  int line_no_;
  const std::string& qreg_;
  const std::unordered_set<std::string>& symbols_;
};

Gate make_gate(const Statement& st, int line_no) {
  const auto& q = st.qubits;
  const auto& p = st.params;
  auto need = [&](std::size_t nq, std::size_t np) {
    ATLAS_CHECK_ARG(q.size() == nq && p.size() == np,
                "line " << line_no << ": gate '" << st.name
                        << "' expects " << nq << " qubits / " << np
                        << " params, got " << q.size() << "/" << p.size());
  };
  const std::string& n = st.name;
  if (n == "h") { need(1, 0); return Gate::h(q[0]); }
  if (n == "x") { need(1, 0); return Gate::x(q[0]); }
  if (n == "y") { need(1, 0); return Gate::y(q[0]); }
  if (n == "z") { need(1, 0); return Gate::z(q[0]); }
  if (n == "s") { need(1, 0); return Gate::s(q[0]); }
  if (n == "sdg") { need(1, 0); return Gate::sdg(q[0]); }
  if (n == "t") { need(1, 0); return Gate::t(q[0]); }
  if (n == "tdg") { need(1, 0); return Gate::tdg(q[0]); }
  if (n == "sx") { need(1, 0); return Gate::sx(q[0]); }
  if (n == "rx") { need(1, 1); return Gate::rx(q[0], p[0]); }
  if (n == "ry") { need(1, 1); return Gate::ry(q[0], p[0]); }
  if (n == "rz") { need(1, 1); return Gate::rz(q[0], p[0]); }
  if (n == "p" || n == "u1") { need(1, 1); return Gate::p(q[0], p[0]); }
  if (n == "u2") { need(1, 2); return Gate::u2(q[0], p[0], p[1]); }
  if (n == "u3" || n == "u") { need(1, 3); return Gate::u3(q[0], p[0], p[1], p[2]); }
  if (n == "cx" || n == "CX") { need(2, 0); return Gate::cx(q[0], q[1]); }
  if (n == "cy") { need(2, 0); return Gate::cy(q[0], q[1]); }
  if (n == "cz") { need(2, 0); return Gate::cz(q[0], q[1]); }
  if (n == "ch") { need(2, 0); return Gate::ch(q[0], q[1]); }
  if (n == "cp" || n == "cu1") { need(2, 1); return Gate::cp(q[0], q[1], p[0]); }
  if (n == "crx") { need(2, 1); return Gate::crx(q[0], q[1], p[0]); }
  if (n == "cry") { need(2, 1); return Gate::cry(q[0], q[1], p[0]); }
  if (n == "crz") { need(2, 1); return Gate::crz(q[0], q[1], p[0]); }
  if (n == "swap") { need(2, 0); return Gate::swap(q[0], q[1]); }
  if (n == "rzz") { need(2, 1); return Gate::rzz(q[0], q[1], p[0]); }
  if (n == "rxx") { need(2, 1); return Gate::rxx(q[0], q[1], p[0]); }
  if (n == "ccx") { need(3, 0); return Gate::ccx(q[0], q[1], q[2]); }
  if (n == "ccz") { need(3, 0); return Gate::ccz(q[0], q[1], q[2]); }
  if (n == "cswap") { need(3, 0); return Gate::cswap(q[0], q[1], q[2]); }
  throw Error("line " + std::to_string(line_no) + ": unsupported gate '" + n +
              "'",
                ErrorCode::invalid_argument);
}

}  // namespace

/// Parses the tail of an `input float theta, phi;` declaration
/// (OpenQASM 3 style): optional width suffix on the type, then a
/// comma-separated identifier list.
void parse_input_declaration(const std::string& stmt, int line_no,
                             std::unordered_set<std::string>& symbols) {
  std::size_t pos = 5;  // past "input"
  auto skip_ws = [&] {
    while (pos < stmt.size() && std::isspace(stmt[pos]) != 0) ++pos;
  };
  auto ident = [&] {
    skip_ws();
    std::string s;
    while (pos < stmt.size() &&
           (std::isalnum(stmt[pos]) != 0 || stmt[pos] == '_'))
      s += stmt[pos++];
    ATLAS_CHECK_ARG(!s.empty() && (std::isalpha(s[0]) != 0 || s[0] == '_'),
                "line " << line_no << ": expected identifier in input "
                                      "declaration");
    return s;
  };
  const std::string type = ident();
  ATLAS_CHECK_ARG(type == "float" || type == "angle",
              "line " << line_no << ": unsupported input type '" << type
                      << "' (want float or angle)");
  skip_ws();
  if (pos < stmt.size() && stmt[pos] == '[') {  // width suffix: float[64]
    const std::size_t close = stmt.find(']', pos);
    ATLAS_CHECK_ARG(close != std::string::npos,
                "line " << line_no << ": unterminated type width");
    pos = close + 1;
  }
  for (;;) {
    const std::string name = ident();
    ATLAS_CHECK_ARG(name != "pi", "line " << line_no
                                      << ": 'pi' is a reserved constant");
    ATLAS_CHECK_ARG(symbols.insert(name).second,
                "line " << line_no << ": duplicate input declaration '"
                        << name << "'");
    skip_ws();
    if (pos < stmt.size() && stmt[pos] == ',') {
      ++pos;
      continue;
    }
    break;
  }
  skip_ws();
  ATLAS_CHECK_ARG(pos == stmt.size(), "line " << line_no
                                          << ": malformed input declaration");
}

Circuit parse(const std::string& source) { return parse(source, nullptr); }

Circuit parse(const std::string& source, std::vector<int>* gate_lines) {
  std::string qreg_name;
  int num_qubits = -1;
  std::vector<Statement> statements;
  std::unordered_set<std::string> symbols;

  // Split on ';', tracking line numbers for diagnostics.
  int line_no = 1;
  std::string stmt;
  std::vector<std::pair<std::string, int>> raw;
  bool in_comment = false;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    if (c == '\n') {
      ++line_no;
      in_comment = false;
      continue;
    }
    if (in_comment) continue;
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      in_comment = true;
      ++i;
      continue;
    }
    if (c == '#') {
      // Pragma lines carry no ';' and are invisible to the base
      // parser; parse_with_noise() reads the atlas noise ones.
      in_comment = true;
      continue;
    }
    if (c == ';') {
      raw.emplace_back(stmt, line_no);
      stmt.clear();
    } else {
      stmt += c;
    }
  }
  {
    // Anything after the last ';' must be whitespace.
    for (char c : stmt)
      ATLAS_CHECK_ARG(std::isspace(c) != 0, "line " << line_no
                                                << ": unterminated statement");
  }

  Circuit circuit;
  bool have_circuit = false;
  for (auto& [text, ln] : raw) {
    // Trim.
    std::size_t b = text.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    std::size_t e = text.find_last_not_of(" \t\r");
    std::string s = text.substr(b, e - b + 1);
    if (s.rfind("OPENQASM", 0) == 0) continue;
    if (s.rfind("include", 0) == 0) continue;
    if (s.rfind("creg", 0) == 0) continue;
    if (s.rfind("barrier", 0) == 0) continue;
    if (s.rfind("measure", 0) == 0) continue;
    if (s.rfind("input", 0) == 0 &&
        (s.size() == 5 || std::isspace(s[5]) != 0)) {
      parse_input_declaration(s, ln, symbols);
      continue;
    }
    if (s.rfind("qreg", 0) == 0) {
      ATLAS_CHECK_ARG(num_qubits < 0, "line " << ln << ": multiple qreg");
      const std::size_t lb = s.find('[');
      const std::size_t rb = s.find(']');
      ATLAS_CHECK_ARG(lb != std::string::npos && rb != std::string::npos && rb > lb,
                  "line " << ln << ": malformed qreg");
      std::string name = s.substr(4, lb - 4);
      name.erase(0, name.find_first_not_of(" \t"));
      name.erase(name.find_last_not_of(" \t") + 1);
      qreg_name = name;
      num_qubits =
          parse_count(s.substr(lb + 1, rb - lb - 1), ln, "register size");
      circuit = Circuit(num_qubits);
      have_circuit = true;
      continue;
    }
    ATLAS_CHECK_ARG(have_circuit, "line " << ln << ": gate before qreg");
    const Statement st = LineParser(s, ln, qreg_name, symbols).parse();
    circuit.add(make_gate(st, ln));
    if (gate_lines != nullptr) gate_lines->push_back(ln);
  }
  ATLAS_CHECK_ARG(have_circuit, "no qreg declaration found");
  return circuit;
}

Circuit parse_file(const std::string& path) {
  std::ifstream in(path);
  ATLAS_CHECK_ARG(in.good(), "cannot open " << path);
  std::ostringstream os;
  os << in.rdbuf();
  Circuit c = parse(os.str());
  c.set_name(path);
  return c;
}

namespace {

/// Cursor over one pragma line's tail (after "#pragma atlas noise").
class PragmaParser {
 public:
  PragmaParser(const std::string& text, int line_no)
      : text_(text), line_no_(line_no) {}

  void parse_into(noise::NoiseModel& model) {
    const std::string channel = identifier("channel name");
    expect('(');
    const double arg0 = number();
    double arg1 = 0;
    const bool two_args = consume(',');
    if (two_args) arg1 = number();
    expect(')');

    if (channel == "readout") {
      ATLAS_CHECK_ARG(two_args, "line " << line_no_
                                    << ": readout takes (p01, p10)");
      apply_readout(model, arg0, arg1);
      return;
    }
    ATLAS_CHECK_ARG(!two_args, "line " << line_no_ << ": channel '" << channel
                                   << "' takes one argument");
    apply_channel(model, make_channel(channel, arg0));
  }

 private:
  noise::KrausChannel make_channel(const std::string& name, double p) {
    if (name == "depolarizing") return noise::KrausChannel::depolarizing(p);
    if (name == "depolarizing2") return noise::KrausChannel::depolarizing2(p);
    if (name == "bit_flip") return noise::KrausChannel::bit_flip(p);
    if (name == "phase_flip") return noise::KrausChannel::phase_flip(p);
    if (name == "bit_phase_flip")
      return noise::KrausChannel::bit_phase_flip(p);
    if (name == "amplitude_damping")
      return noise::KrausChannel::amplitude_damping(p);
    if (name == "phase_damping")
      return noise::KrausChannel::phase_damping(p);
    throw Error("line " + std::to_string(line_no_) +
                ": unknown noise channel '" + name + "'",
                ErrorCode::invalid_argument);
  }

  void apply_channel(noise::NoiseModel& model, noise::KrausChannel ch) {
    const std::string target = identifier("target (all/gate/qubit)");
    if (target == "all") {
      model.after_all_gates(std::move(ch));
    } else if (target == "gate") {
      model.after_gate(identifier("gate name"), std::move(ch));
    } else if (target == "qubit") {
      model.on_qubit(integer(), std::move(ch));
    } else {
      throw Error("line " + std::to_string(line_no_) +
                  ": bad noise target '" + target +
                  "' (expected all, gate <name> or qubit <k>)",
                ErrorCode::invalid_argument);
    }
    end();
  }

  void apply_readout(noise::NoiseModel& model, double p01, double p10) {
    const std::string target = identifier("target (all/qubit)");
    if (target == "all") {
      model.readout_error_all(p01, p10);
    } else if (target == "qubit") {
      model.readout_error(integer(), p01, p10);
    } else {
      throw Error("line " + std::to_string(line_no_) +
                  ": bad readout target '" + target +
                  "' (expected all or qubit <k>)",
                ErrorCode::invalid_argument);
    }
    end();
  }

  std::string identifier(const char* what) {
    skip_ws();
    std::string s;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '_'))
      s += text_[pos_++];
    ATLAS_CHECK_ARG(!s.empty(),
                "line " << line_no_ << ": expected " << what
                        << " in noise pragma");
    return s;
  }

  double number() {
    skip_ws();
    std::size_t used = 0;
    double v = 0;
    try {
      v = std::stod(text_.substr(pos_), &used);
    } catch (const std::exception&) {
      throw Error("line " + std::to_string(line_no_) +
                  ": bad number in noise pragma",
                ErrorCode::invalid_argument);
    }
    pos_ += used;
    return v;
  }

  int integer() {
    const double v = number();
    // Range first: casting a double past INT_MAX to int is undefined.
    ATLAS_CHECK_ARG(v >= 0 && v <= std::numeric_limits<int>::max() &&
                        v == std::floor(v),
                    "line " << line_no_
                            << ": qubit index must be a non-negative integer");
    return static_cast<int>(v);
  }

  void expect(char c) {
    ATLAS_CHECK_ARG(consume(c), "line " << line_no_ << ": expected '" << c
                                    << "' in noise pragma");
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void end() {
    skip_ws();
    ATLAS_CHECK_ARG(pos_ == text_.size(), "line "
                                          << line_no_
                                          << ": trailing characters in noise "
                                             "pragma: '"
                                          << text_.substr(pos_) << "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  std::string text_;  // owned: callers pass substr temporaries
  int line_no_;
  std::size_t pos_ = 0;
};

std::string trimmed(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

NoisyParse parse_with_noise(const std::string& source) {
  NoisyParse out;
  std::istringstream lines(source);
  std::string line;
  int line_no = 0;
  constexpr const char* kPrefix = "#pragma atlas noise";
  while (std::getline(lines, line)) {
    ++line_no;
    const std::string t = trimmed(line);
    if (t.rfind(kPrefix, 0) == 0) {
      PragmaParser(t.substr(std::string(kPrefix).size()), line_no)
          .parse_into(out.noise);
    } else if (t.rfind("#pragma atlas", 0) == 0) {
      throw Error("line " + std::to_string(line_no) +
                  ": unknown atlas pragma (expected '#pragma atlas noise "
                  "...')",
                ErrorCode::invalid_argument);
    }
    // Other pragmas fall through to parse(), which skips '#' lines.
  }
  out.circuit = parse(source, &out.gate_lines);
  return out;
}

NoisyParse parse_file_with_noise(const std::string& path) {
  std::ifstream in(path);
  ATLAS_CHECK_ARG(in.good(), "cannot open " << path);
  std::ostringstream os;
  os << in.rdbuf();
  NoisyParse out = parse_with_noise(os.str());
  out.circuit.set_name(path);
  return out;
}

namespace {

/// Serializes an uncontrolled Unitary gate (the optimizer's resynthesis
/// products) as standard qelib1 gates, exact up to a global phase —
/// QASM 2 cannot express one. Single-qubit unitaries become one u3;
/// two-qubit *diagonal* unitaries become p/p/cp. Anything else (and
/// non-unitary trajectory operators) still refuses.
void emit_unitary(std::ostringstream& os, const Gate& g) {
  ATLAS_CHECK_ARG(g.num_controls() == 0 &&
                  (g.num_qubits() == 1 ||
                   (g.num_qubits() == 2 && g.fully_diagonal())),
              "cannot serialize opaque unitary gate '"
                  << g.to_string()
                  << "' to QASM (supported: uncontrolled 1q unitaries and "
                  << "2q diagonals, up to global phase)");
  const Matrix m = g.target_matrix();
  ATLAS_CHECK_ARG(m.is_unitary(1e-9), "cannot serialize non-unitary gate '"
                                      << g.to_string() << "' to QASM");
  if (g.num_qubits() == 1) {
    const Amp a = m(0, 0), b = m(0, 1), c = m(1, 0), d = m(1, 1);
    const double theta = 2.0 * std::atan2(std::abs(c), std::abs(a));
    // Global phase alpha normalizes the first nonzero column entry.
    const double alpha = std::abs(a) > 1e-12 ? std::arg(a) : 0.0;
    const double phi = std::abs(c) > 1e-12 ? std::arg(c) - alpha : 0.0;
    const double lambda = std::abs(b) > 1e-12 ? std::arg(-b) - alpha
                                              : std::arg(d) - alpha - phi;
    os << "u3(" << theta << "," << phi << "," << lambda << ") q["
       << g.qubits()[0] << "];\n";
    return;
  }
  // diag(d0,d1,d2,d3) over bits (q1,q0) = e^{i arg d0} * p(q0, arg
  // d1/d0) p(q1, arg d2/d0) cp(q0, q1, arg d0*d3/(d1*d2)).
  const Amp d0 = m(0, 0), d1 = m(1, 1), d2 = m(2, 2), d3 = m(3, 3);
  const Qubit q0 = g.qubits()[0], q1 = g.qubits()[1];
  os << "p(" << std::arg(d1 / d0) << ") q[" << q0 << "];\n";
  os << "p(" << std::arg(d2 / d0) << ") q[" << q1 << "];\n";
  os << "cp(" << std::arg((d0 * d3) / (d1 * d2)) << ") q[" << q0 << "],q["
     << q1 << "];\n";
}

}  // namespace

std::string to_qasm(const Circuit& circuit) {
  std::ostringstream os;
  const std::vector<std::string> symbols = circuit.symbols();
  if (symbols.empty()) {
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
  } else {
    // Symbolic parameters need OpenQASM 3 input declarations; our own
    // parser round-trips either dialect. Engine-internal slot symbols
    // ("$k", from canonicalized plans) are not QASM identifiers and
    // cannot round-trip, so refuse them up front.
    os << "OPENQASM 3.0;\n";
    os << "include \"stdgates.inc\";\n";
    for (const std::string& s : symbols) {
      ATLAS_CHECK_ARG(std::isalpha(static_cast<unsigned char>(s[0])) != 0 ||
                      s[0] == '_',
                  "cannot serialize symbol '"
                      << s << "' to QASM (not a valid identifier)");
      os << "input float " << s << ";\n";
    }
  }
  os << "qreg q[" << circuit.num_qubits() << "];\n";
  os.precision(17);
  for (const Gate& g : circuit.gates()) {
    if (g.kind() == GateKind::Unitary) {
      emit_unitary(os, g);
      continue;
    }
    os << gate_kind_name(g.kind());
    if (!g.params().empty()) {
      os << "(";
      for (std::size_t i = 0; i < g.params().size(); ++i) {
        if (i) os << ",";
        os << g.params()[i];
      }
      os << ")";
    }
    os << " ";
    bool first = true;
    // QASM argument order matches the factory order: controls first.
    for (Qubit q : g.controls()) {
      if (!first) os << ",";
      os << "q[" << q << "]";
      first = false;
    }
    for (Qubit q : g.targets()) {
      if (!first) os << ",";
      os << "q[" << q << "]";
      first = false;
    }
    os << ";\n";
  }
  return os.str();
}

}  // namespace atlas::qasm
