#pragma once

/// \file param.h
/// Symbolic gate parameters. A Param is an affine expression over named
/// symbols — `constant + sum(coeff_i * symbol_i)` — which is exactly the
/// family QASM ansatz files and variational workloads need (theta,
/// 2*theta + pi/2, -phi, ...). Affine closure keeps binding trivial and
/// lets the plan layer treat every rotation-family parameter as an
/// opaque placeholder: insularity and diagonality are decided per gate
/// kind, never numerically, so execution plans are valid for *any*
/// binding of the symbols (the compile-once / bind-many contract).
///
/// A ParamBinding maps symbol names to concrete values; evaluating a
/// Param against a binding that lacks one of its symbols throws an
/// atlas::Error naming the symbol.
///
/// Execution never touches ParamBinding on its hot path: the engine
/// lowers bindings into a dense SlotValues table (slot "$k" at index k)
/// once per run, and kernels resolve parameters by array indexing. The
/// ir.binding_lookups obs counter regression-tests exactly that — it
/// counts every string-keyed at()/contains() call process-wide.

#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace atlas {

/// Dense engine-slot values: index k holds the value of plan slot "$k".
/// Built once per run by CompiledCircuit::slot_values(); consumed by the
/// execution layer through ParamEnv with pure array indexing.
using SlotValues = std::vector<double>;

/// Symbol-name -> value assignment used to bind parameterized circuits.
class ParamBinding {
 public:
  ParamBinding() = default;
  ParamBinding(
      std::initializer_list<std::pair<const std::string, double>> init)
      : values_(init) {}

  /// Chainable: binding.set("theta", 0.3).set("phi", 1.2).
  ParamBinding& set(std::string name, double value) {
    values_[std::move(name)] = value;
    return *this;
  }

  bool contains(const std::string& name) const;

  /// Throws atlas::Error naming the symbol when unbound.
  double at(const std::string& name) const;

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::unordered_map<std::string, double>& values() const {
    return values_;
  }

 private:
  std::unordered_map<std::string, double> values_;
};

/// An affine parameter expression: constant + sum(coeff * symbol).
/// Implicitly constructible from double, so every legacy call site
/// (`Gate::rx(q, 0.5)`) keeps compiling; symbolic parameters enter via
/// `Param::symbol("theta")` and compose with +, -, * and / by scalars.
class Param {
 public:
  /// The zero constant.
  Param() = default;
  /// A concrete value (implicit on purpose: doubles are Params).
  Param(double value) : constant_(value) {}

  /// A free symbol with coefficient 1.
  static Param symbol(std::string name);

  bool is_constant() const { return terms_.empty(); }
  bool is_symbolic() const { return !terms_.empty(); }

  /// The value of a constant expression; throws atlas::Error when the
  /// expression still contains symbols.
  double constant_value() const;

  /// Evaluates against `binding`; throws atlas::Error naming the first
  /// symbol the binding is missing.
  double evaluate(const ParamBinding& binding) const;

  /// The dense slot id when this expression is exactly one engine slot
  /// symbol ("$k" with coefficient 1 and no constant), else -1. Plans
  /// produced by Session::compile() carry only such parameters, so the
  /// execution layer resolves them by indexing a SlotValues table.
  int slot_index() const;

  /// The slot id when `name` is an engine slot symbol ("$" and 1 to 9
  /// digits), else -1. The one parser of slot names: slot_index() and
  /// the verifier both use it.
  static int slot_id(const std::string& name);

  /// The distinct symbol names, ascending.
  std::vector<std::string> symbols() const;

  /// Structure accessors (terms sorted by symbol, coefficients != 0).
  const std::vector<std::pair<std::string, double>>& terms() const {
    return terms_;
  }
  double constant_term() const { return constant_; }

  /// Re-parseable rendering: "0.5", "theta", "2*theta + 0.5", "-phi".
  std::string to_string() const;

  Param operator-() const;
  Param& operator+=(const Param& other);
  Param& operator-=(const Param& other);
  Param& operator*=(double factor);
  Param& operator/=(double divisor);

  friend Param operator+(Param a, const Param& b) { return a += b; }
  friend Param operator-(Param a, const Param& b) { return a -= b; }
  friend Param operator*(Param a, double b) { return a *= b; }
  friend Param operator*(double a, Param b) { return b *= a; }
  friend Param operator/(Param a, double b) { return a /= b; }

  /// Product of two expressions; throws atlas::Error unless at least
  /// one side is constant (the result must stay affine).
  friend Param operator*(const Param& a, const Param& b);
  /// Quotient; throws atlas::Error when the divisor is symbolic.
  friend Param operator/(const Param& a, const Param& b);

  friend bool operator==(const Param& a, const Param& b) {
    return a.constant_ == b.constant_ && a.terms_ == b.terms_;
  }
  friend bool operator!=(const Param& a, const Param& b) { return !(a == b); }

 private:
  void drop_zero_terms();

  double constant_ = 0.0;
  /// Sorted by symbol name; no zero coefficients, no duplicates.
  std::vector<std::pair<std::string, double>> terms_;
};

/// Streams the same rendering as to_string(), honoring the stream's
/// floating-point precision (QASM export runs at precision 17).
std::ostream& operator<<(std::ostream& os, const Param& p);

/// The parameter environment a plan executes under. Either side may be
/// null: `slots` serves canonical plans (every parameter a "$k" slot)
/// with array indexing; `named` is the general fallback for plans that
/// carry free user symbols. Both null means only constant parameters
/// can be resolved.
struct ParamEnv {
  const ParamBinding* named = nullptr;
  const SlotValues* slots = nullptr;

  bool empty() const { return named == nullptr && slots == nullptr; }
};

/// Resolves `p` against `env`: constants directly, slot symbols through
/// env.slots by index, anything else through env.named. Throws
/// atlas::Error naming the expression when it cannot be resolved.
double resolve_param(const Param& p, const ParamEnv& env);

}  // namespace atlas
