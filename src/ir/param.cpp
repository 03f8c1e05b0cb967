#include "ir/param.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace atlas {
namespace {

/// Counts every string-keyed ParamBinding lookup process-wide: the
/// hot-path tests snapshot it around sweeps to prove execution does no
/// per-point string lookups once parameters are slot-lowered.
obs::Counter& binding_lookups() {
  static obs::Counter& c = obs::counter(obs::names::kIrBindingLookups);
  return c;
}

/// Prints one term's coefficient and symbol: "theta", "-theta",
/// "2*theta". `lead` selects the leading-position form (signed) vs the
/// continuation form (magnitude only; the caller printed " + "/" - ").
void print_term(std::ostream& os, double coeff, const std::string& sym,
                bool lead) {
  const double mag = lead ? coeff : std::abs(coeff);
  if (mag == 1.0) {
    os << sym;
  } else if (lead && mag == -1.0) {
    os << "-" << sym;
  } else {
    os << mag << "*" << sym;
  }
}

}  // namespace

bool ParamBinding::contains(const std::string& name) const {
  binding_lookups().inc();
  return values_.count(name) != 0;
}

double ParamBinding::at(const std::string& name) const {
  binding_lookups().inc();
  auto it = values_.find(name);
  ATLAS_CHECK(it != values_.end(), "no value bound for symbol '" << name
                                                                 << "'");
  return it->second;
}

Param Param::symbol(std::string name) {
  // Identifier syntax keeps every symbol printable and QASM
  // round-trippable; the '$' start is reserved for the engine's
  // internal plan slots ("$0", "$1", ...) and the '~' start for the
  // noise engine's trajectory slots ("~n<site>..."): QASM identifiers
  // can produce neither, so user symbols never collide with engine
  // symbols.
  ATLAS_CHECK(!name.empty(), "empty parameter symbol name");
  ATLAS_CHECK(std::isalpha(static_cast<unsigned char>(name[0])) != 0 ||
                  name[0] == '_' || name[0] == '$' || name[0] == '~',
              "bad parameter symbol '"
                  << name
                  << "': must start with a letter, _, $ or ~ ($ and ~ are "
                     "reserved for engine slots)");
  for (std::size_t i = 1; i < name.size(); ++i) {
    ATLAS_CHECK(std::isalnum(static_cast<unsigned char>(name[i])) != 0 ||
                    name[i] == '_',
                "bad parameter symbol '" << name
                                         << "': only letters, digits and _");
  }
  ATLAS_CHECK(name != "pi", "'pi' is a reserved constant, not a symbol");
  Param p;
  p.terms_.emplace_back(std::move(name), 1.0);
  return p;
}

double Param::constant_value() const {
  ATLAS_CHECK(is_constant(), "parameter '"
                                 << to_string()
                                 << "' is symbolic; bind its symbols first");
  return constant_;
}

double Param::evaluate(const ParamBinding& binding) const {
  double v = constant_;
  for (const auto& [sym, coeff] : terms_) {
    ATLAS_CHECK(binding.contains(sym),
                "binding is missing symbol '" << sym << "' needed by '"
                                              << to_string() << "'");
    v += coeff * binding.at(sym);
  }
  return v;
}

int Param::slot_index() const {
  if (constant_ != 0.0 || terms_.size() != 1) return -1;
  const auto& [sym, coeff] = terms_.front();
  return coeff == 1.0 ? slot_id(sym) : -1;
}

int Param::slot_id(const std::string& name) {
  // <= 9 digits keeps the accumulator below INT_MAX; longer strings are
  // user-minted '$' symbols, never engine slots.
  if (name.size() < 2 || name.size() > 10 || name[0] != '$') return -1;
  int index = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    const unsigned char ch = static_cast<unsigned char>(name[i]);
    if (std::isdigit(ch) == 0) return -1;
    index = index * 10 + (name[i] - '0');
  }
  return index;
}

std::vector<std::string> Param::symbols() const {
  std::vector<std::string> out;
  out.reserve(terms_.size());
  for (const auto& [sym, coeff] : terms_) out.push_back(sym);
  return out;  // terms_ is sorted and deduplicated by construction
}

std::string Param::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

Param Param::operator-() const {
  Param p = *this;
  p.constant_ = -p.constant_;
  for (auto& [sym, coeff] : p.terms_) coeff = -coeff;
  return p;
}

Param& Param::operator+=(const Param& other) {
  constant_ += other.constant_;
  // Merge two sorted term lists.
  std::vector<std::pair<std::string, double>> merged;
  merged.reserve(terms_.size() + other.terms_.size());
  auto a = terms_.begin();
  auto b = other.terms_.begin();
  while (a != terms_.end() || b != other.terms_.end()) {
    if (b == other.terms_.end() || (a != terms_.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == terms_.end() || b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, a->second + b->second);
      ++a, ++b;
    }
  }
  terms_ = std::move(merged);
  drop_zero_terms();
  return *this;
}

Param& Param::operator-=(const Param& other) { return *this += -other; }

Param& Param::operator*=(double factor) {
  constant_ *= factor;
  for (auto& [sym, coeff] : terms_) coeff *= factor;
  drop_zero_terms();
  return *this;
}

Param& Param::operator/=(double divisor) {
  ATLAS_CHECK(divisor != 0.0, "division by zero in parameter expression");
  return *this *= 1.0 / divisor;
}

Param operator*(const Param& a, const Param& b) {
  ATLAS_CHECK(a.is_constant() || b.is_constant(),
              "non-affine parameter expression: cannot multiply '"
                  << a.to_string() << "' by '" << b.to_string() << "'");
  if (a.is_constant()) return Param(b) *= a.constant_;
  return Param(a) *= b.constant_;
}

Param operator/(const Param& a, const Param& b) {
  ATLAS_CHECK(b.is_constant(), "non-affine parameter expression: cannot "
                               "divide by symbolic '"
                                   << b.to_string() << "'");
  return Param(a) /= b.constant_value();
}

void Param::drop_zero_terms() {
  terms_.erase(std::remove_if(terms_.begin(), terms_.end(),
                              [](const auto& t) { return t.second == 0.0; }),
               terms_.end());
}

double resolve_param(const Param& p, const ParamEnv& env) {
  if (p.is_constant()) return p.constant_term();
  if (env.slots != nullptr) {
    const int k = p.slot_index();
    if (k >= 0 && k < static_cast<int>(env.slots->size()))
      return (*env.slots)[static_cast<std::size_t>(k)];
  }
  ATLAS_CHECK(env.named != nullptr,
              "no binding supplied for symbolic parameter '" << p.to_string()
                                                             << "'");
  return p.evaluate(*env.named);
}

std::ostream& operator<<(std::ostream& os, const Param& p) {
  const auto& terms = p.terms();
  if (terms.empty()) {
    os << p.constant_term();
    return os;
  }
  print_term(os, terms[0].second, terms[0].first, /*lead=*/true);
  for (std::size_t i = 1; i < terms.size(); ++i) {
    os << (terms[i].second < 0 ? " - " : " + ");
    print_term(os, terms[i].second, terms[i].first, /*lead=*/false);
  }
  const double c = p.constant_term();
  if (c != 0.0) os << (c < 0 ? " - " : " + ") << std::abs(c);
  return os;
}

}  // namespace atlas
