#pragma once

/// \file compiled.h
/// The compile-once / bind-many handle. Session::compile() canonicalizes
/// every rotation-family parameter of a circuit into a slot symbol
/// ("$0", "$1", ...) and stages + kernelizes the canonical circuit
/// exactly once; the resulting CompiledCircuit is an immutable handle
/// over that shared ExecutionPlan plus the slot table mapping each slot
/// back to the caller's parameter expression (a concrete value, a
/// symbol, or an affine combination). Session::run()/submit()/sweep()
/// evaluate the slot table against a ParamBinding and execute the plan
/// — staging and kernelization never repeat across bindings, which is
/// sound because plans depend only on gate structure (insularity and
/// diagonality are per-kind properties; paper Section III).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "exec/executor.h"
#include "ir/circuit.h"
#include "ir/param.h"

namespace atlas {

class Session;
class CompilePipeline;
struct CompileDiagnostics;

class CompiledCircuit {
 public:
  /// One canonicalized parameter: slot `index` (symbol "$index" in the
  /// plan's gates) holds the value of `expr` at bind time. `gate` and
  /// `param` locate the originating parameter in optimized_circuit()
  /// (== circuit() at opt_level 0; the optimizer may have merged
  /// several authored parameters into one affine `expr`).
  struct Slot {
    int index = 0;
    int gate = 0;
    int param = 0;
    Param expr;
  };

  CompiledCircuit() = default;

  /// False for a default-constructed handle.
  bool valid() const { return plan_ != nullptr; }

  /// The source circuit as handed to compile() (original parameters).
  /// Throws atlas::Error on an invalid (default-constructed) handle.
  const Circuit& circuit() const {
    ATLAS_CHECK(circuit_ != nullptr,
                "invalid CompiledCircuit; use Session::compile()");
    return *circuit_;
  }

  /// The post-optimization circuit the plan was built from — what the
  /// slot table's gate/param indices reference. Identical to circuit()
  /// when SessionConfig::opt_level is 0 or no pass fired. Throws
  /// atlas::Error on an invalid handle.
  const Circuit& optimized_circuit() const;

  /// Per-phase compile timings, optimizer pass accounting, and the
  /// plan-cache outcome of the compile() that built this handle.
  /// Throws atlas::Error on an invalid handle.
  const CompileDiagnostics& diagnostics() const;

  /// The shared, immutable execution plan (canonical slot symbols).
  const std::shared_ptr<const exec::ExecutionPlan>& plan() const {
    return plan_;
  }

  int num_qubits() const { return circuit().num_qubits(); }

  /// The user-facing free symbols a run() binding must supply,
  /// ascending. Empty for fully concrete circuits.
  const std::vector<std::string>& symbols() const { return symbols_; }
  bool is_parameterized() const { return !symbols_.empty(); }

  /// The parameter slot table, in slot order.
  const std::vector<Slot>& param_slots() const { return slots_; }

  /// The structural plan key this handle was compiled under
  /// (structural fingerprint mixed with the cluster shape; the plan
  /// cache further salts it with the engine configuration).
  std::uint64_t plan_key() const { return plan_key_; }

  /// Dense slot-value table for `binding`: index k holds the value of
  /// plan slot "$k". Exactly one string lookup per free symbol; every
  /// slot expression is then evaluated by a precompiled symbol-index
  /// program, and execution resolves plan parameters by array indexing
  /// — zero ParamBinding lookups past this call. Throws atlas::Error
  /// naming the first missing symbol.
  SlotValues slot_values(const ParamBinding& binding) const;

  /// As slot_values(), from values positionally aligned with symbols()
  /// — the zero-string-lookup sweep entry. Throws atlas::Error on a
  /// size mismatch.
  SlotValues slot_values_from(const std::vector<double>& symbol_values) const;

 private:
  friend class Session;
  friend class CompilePipeline;

  /// One slot expression lowered to symbol indices: constant +
  /// sum(coeff * symbol_values[sym]). Built once at compile() so
  /// binding a sweep point is pure arithmetic.
  struct SlotTerm {
    int sym = 0;
    double coeff = 0;
  };
  struct SlotProgram {
    double constant = 0;
    std::vector<SlotTerm> terms;
  };

  void build_slot_programs();

  std::shared_ptr<const Circuit> circuit_;
  std::shared_ptr<const Circuit> optimized_;
  std::shared_ptr<const CompileDiagnostics> diagnostics_;
  std::shared_ptr<const exec::ExecutionPlan> plan_;
  std::vector<std::string> symbols_;
  std::vector<Slot> slots_;
  std::vector<SlotProgram> slot_programs_;
  std::uint64_t plan_key_ = 0;
  std::uint64_t shape_salt_ = 0;  // guards cross-session handle misuse
};

/// The canonical name of parameter slot `index` ("$3"). The "$" prefix
/// is reserved for the engine: QASM identifiers cannot produce it (and
/// export refuses it), and even a hand-minted Param::symbol("$k") never
/// meets a plan slot — user expressions are evaluated by slot_values()
/// before the dense slot table reaches the execution layer.
std::string slot_symbol_name(int index);

}  // namespace atlas
