#include "verify/verify.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_set>

#include "core/compiled.h"
#include "exec/executor.h"
#include "exec/stage_program.h"
#include "kernelize/kernel.h"
#include "noise/channel.h"
#include "noise/model.h"
#include "staging/stage.h"

namespace atlas::verify {

const char* verify_level_name(VerifyLevel level) {
  switch (level) {
    case VerifyLevel::boundaries: return "boundaries";
    case VerifyLevel::paranoid: return "paranoid";
  }
  return "?";
}

const char* code_name(Code code) {
  switch (code) {
    case Code::qubit_out_of_range: return "qubit_out_of_range";
    case Code::duplicate_qubit: return "duplicate_qubit";
    case Code::bad_arity: return "bad_arity";
    case Code::bad_matrix_shape: return "bad_matrix_shape";
    case Code::nonunitary_matrix: return "nonunitary_matrix";
    case Code::dangling_slot: return "dangling_slot";
    case Code::gate_unstaged: return "gate_unstaged";
    case Code::gate_double_staged: return "gate_double_staged";
    case Code::stage_order: return "stage_order";
    case Code::stage_locality: return "stage_locality";
    case Code::partition_not_permutation: return "partition_not_permutation";
    case Code::stage_subcircuit_mismatch: return "stage_subcircuit_mismatch";
    case Code::kernel_coverage: return "kernel_coverage";
    case Code::kernel_qubits: return "kernel_qubits";
    case Code::slot_table_mismatch: return "slot_table_mismatch";
    case Code::symbol_unbound: return "symbol_unbound";
    case Code::gather_not_bijective: return "gather_not_bijective";
    case Code::variant_count: return "variant_count";
    case Code::pattern_bits_invalid: return "pattern_bits_invalid";
    case Code::non_cptp: return "non_cptp";
    case Code::kraus_shape: return "kraus_shape";
    case Code::readout_not_stochastic: return "readout_not_stochastic";
    case Code::kernel_order: return "kernel_order";
    case Code::kernel_width: return "kernel_width";
    case Code::kernel_cost: return "kernel_cost";
  }
  return "?";
}

std::string VerifyDiagnostic::to_string() const {
  std::ostringstream os;
  if (stage >= 0) os << "stage " << stage << " ";
  if (kernel >= 0) os << "kernel " << kernel << " ";
  if (gate >= 0) os << "gate " << gate << " ";
  os << code_name(code) << ": " << message;
  return os.str();
}

void VerifyReport::merge(const VerifyReport& other) {
  diags.insert(diags.end(), other.diags.begin(), other.diags.end());
  if (subject.empty()) subject = other.subject;
}

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  os << "verify failed";
  if (!subject.empty()) os << " for " << subject;
  os << " (" << diags.size() << " diagnostic" << (diags.size() == 1 ? "" : "s")
     << "):";
  for (const VerifyDiagnostic& d : diags) os << "\n  " << d.to_string();
  return os.str();
}

namespace {

void add(VerifyReport& report, Code code, std::string message, int gate = -1,
         int stage = -1, int kernel = -1) {
  report.diags.push_back(
      VerifyDiagnostic{code, std::move(message), gate, stage, kernel});
}

/// Expected (qubits, params) per gate kind; {-1, -1} means variable
/// (Unitary) and is checked separately.
std::pair<int, int> kind_arity(GateKind kind) {
  switch (kind) {
    case GateKind::H: case GateKind::X: case GateKind::Y: case GateKind::Z:
    case GateKind::S: case GateKind::Sdg: case GateKind::T:
    case GateKind::Tdg: case GateKind::SX:
      return {1, 0};
    case GateKind::RX: case GateKind::RY: case GateKind::RZ: case GateKind::P:
      return {1, 1};
    case GateKind::U2: return {1, 2};
    case GateKind::U3: return {1, 3};
    case GateKind::CX: case GateKind::CY: case GateKind::CZ: case GateKind::CH:
    case GateKind::SWAP:
      return {2, 0};
    case GateKind::CP: case GateKind::CRX: case GateKind::CRY:
    case GateKind::CRZ: case GateKind::RZZ: case GateKind::RXX:
      return {2, 1};
    case GateKind::CCX: case GateKind::CCZ: case GateKind::CSWAP:
      return {3, 0};
    case GateKind::Unitary: return {-1, -1};
  }
  return {-1, -1};
}

/// Shared circuit walk. `require_dense_slots` is on for whole circuits
/// (the canonical-form contract) and off for stage subcircuits, which
/// legally reference a subset of the plan's slots. `stage` tags the
/// diagnostics when walking a stage subcircuit.
void check_circuit_core(const Circuit& circuit, VerifyLevel level,
                        const Tolerances& tol, bool require_dense_slots,
                        VerifyReport& report, int stage = -1) {
  std::set<int> slots_seen;
  bool slot_form_ok = true;
  for (int gi = 0; gi < circuit.num_gates(); ++gi) {
    const Gate& g = circuit.gate(gi);
    // Qubit bounds and distinctness.
    std::unordered_set<Qubit> seen;
    for (Qubit q : g.qubits()) {
      if (q < 0 || q >= circuit.num_qubits()) {
        add(report, Code::qubit_out_of_range,
            "qubit " + std::to_string(q) + " of " + g.to_string() +
                " outside [0, " + std::to_string(circuit.num_qubits()) + ")",
            gi, stage);
      } else if (!seen.insert(q).second) {
        add(report, Code::duplicate_qubit,
            "qubit " + std::to_string(q) + " listed twice in " + g.to_string(),
            gi, stage);
      }
    }
    // Arity per kind.
    const auto [want_qubits, want_params] = kind_arity(g.kind());
    if (want_qubits >= 0) {
      if (g.num_qubits() != want_qubits ||
          static_cast<int>(g.params().size()) != want_params) {
        add(report, Code::bad_arity,
            gate_kind_name(g.kind()) + " has " +
                std::to_string(g.num_qubits()) + " qubits / " +
                std::to_string(g.params().size()) + " params, expected " +
                std::to_string(want_qubits) + " / " +
                std::to_string(want_params),
            gi, stage);
      }
    } else {
      // Unitary: matrix square 2^targets. target_matrix() returns the
      // stored custom matrix; a shape break here means the gate was
      // assembled outside the factory checks.
      const Matrix m = g.target_matrix();
      const int want = 1 << g.num_targets();
      if (m.rows() != want || m.cols() != want) {
        add(report, Code::bad_matrix_shape,
            "unitary matrix is " + std::to_string(m.rows()) + "x" +
                std::to_string(m.cols()) + " but the gate has " +
                std::to_string(g.num_targets()) + " targets (want " +
                std::to_string(want) + "x" + std::to_string(want) + ")",
            gi, stage);
      } else if (level >= VerifyLevel::paranoid &&
                 !m.is_unitary(tol.unitarity)) {
        add(report, Code::nonunitary_matrix,
            "explicit matrix deviates from unitarity beyond " +
                std::to_string(tol.unitarity),
            gi, stage);
      }
    }
    // Engine-slot discipline: any "$k" must be a pure slot reference.
    for (const Param& p : g.params()) {
      bool has_slot_symbol = false;
      for (const auto& [sym, coeff] : p.terms()) {
        (void)coeff;
        if (Param::slot_id(sym) >= 0) has_slot_symbol = true;
      }
      if (!has_slot_symbol) continue;
      const int id = p.slot_index();
      if (id < 0) {
        slot_form_ok = false;
        add(report, Code::dangling_slot,
            "parameter " + p.to_string() +
                " mixes an engine slot symbol into a non-slot expression",
            gi, stage);
      } else {
        slots_seen.insert(id);
      }
    }
  }
  // Canonical circuits: slots dense [0, count).
  if (require_dense_slots && slot_form_ok && !slots_seen.empty()) {
    const int max_slot = *slots_seen.rbegin();
    if (*slots_seen.begin() != 0 ||
        max_slot + 1 != static_cast<int>(slots_seen.size())) {
      std::ostringstream os;
      os << "slot symbols are not dense: " << slots_seen.size()
         << " distinct slots but the highest is $" << max_slot;
      add(report, Code::dangling_slot, os.str(), -1, stage);
    }
  }
}

/// True when `partition` is a permutation of [0, n) with the shape's
/// sizes; appends diagnostics otherwise.
void check_partition(const staging::QubitPartition& partition, int num_qubits,
                     const staging::MachineShape& shape, VerifyReport& report,
                     int stage) {
  const auto sizes_ok =
      static_cast<int>(partition.local.size()) == shape.num_local &&
      static_cast<int>(partition.regional.size()) == shape.num_regional &&
      static_cast<int>(partition.global.size()) == shape.num_global;
  if (!sizes_ok) {
    std::ostringstream os;
    os << "partition sizes L/R/G = " << partition.local.size() << "/"
       << partition.regional.size() << "/" << partition.global.size()
       << ", shape wants " << shape.num_local << "/" << shape.num_regional
       << "/" << shape.num_global;
    add(report, Code::partition_not_permutation, os.str(), -1, stage);
  }
  std::vector<int> count(static_cast<std::size_t>(std::max(num_qubits, 1)), 0);
  bool in_range = true;
  auto tally = [&](const std::vector<Qubit>& qs) {
    for (Qubit q : qs) {
      if (q < 0 || q >= num_qubits) {
        in_range = false;
        add(report, Code::partition_not_permutation,
            "partition names qubit " + std::to_string(q) + " outside [0, " +
                std::to_string(num_qubits) + ")",
            -1, stage);
      } else {
        ++count[static_cast<std::size_t>(q)];
      }
    }
  };
  tally(partition.local);
  tally(partition.regional);
  tally(partition.global);
  if (in_range && sizes_ok) {
    for (int q = 0; q < num_qubits; ++q) {
      if (count[static_cast<std::size_t>(q)] != 1) {
        add(report, Code::partition_not_permutation,
            "qubit " + std::to_string(q) + " appears " +
                std::to_string(count[static_cast<std::size_t>(q)]) +
                " times across local/regional/global",
            -1, stage);
      }
    }
  }
}

/// Stage locality: every non-insular qubit of every gate local.
void check_locality(const Circuit& gates_of, const std::vector<int>& indices,
                    const staging::QubitPartition& partition,
                    VerifyReport& report, int stage) {
  const std::unordered_set<Qubit> local(partition.local.begin(),
                                        partition.local.end());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const Gate& g = gates_of.gate(indices[i]);
    for (Qubit q : g.non_insular_qubits()) {
      if (local.count(q) == 0) {
        add(report, Code::stage_locality,
            "non-insular qubit " + std::to_string(q) + " of " + g.to_string() +
                " is not local in its stage",
            indices[i], stage);
      }
    }
  }
}

std::string qubit_list(const std::vector<Qubit>& qubits) {
  std::string out = "{";
  for (std::size_t i = 0; i < qubits.size(); ++i)
    out += (i > 0 ? ", " : "") + std::to_string(qubits[i]);
  return out + "}";
}

/// The kernelization contract of one (sub)circuit. `stage` tags the
/// diagnostics when checking a plan stage.
void check_kernels(const Circuit& circuit, const kernelize::Kernelization& k,
                   const kernelize::CostModel& model, VerifyReport& report,
                   int stage = -1) {
  const auto num_gates = static_cast<std::size_t>(circuit.num_gates());
  // Coverage, and where each gate sits in the concatenated sequence.
  std::vector<int> in_kernel(num_gates, 0);
  std::vector<int> position(num_gates, -1);
  std::vector<int> kernel_of(num_gates, -1);
  int next = 0;
  double total = 0;
  for (std::size_t ki = 0; ki < k.kernels.size(); ++ki) {
    const int kid = static_cast<int>(ki);
    const kernelize::Kernel& kern = k.kernels[ki];
    total += kern.cost;
    std::vector<Qubit> touched;
    bool indices_ok = true;
    for (int gi : kern.gate_indices) {
      if (gi < 0 || gi >= circuit.num_gates()) {
        indices_ok = false;
        add(report, Code::kernel_coverage,
            "kernel lists gate index " + std::to_string(gi) + " outside [0, " +
                std::to_string(circuit.num_gates()) + ")",
            gi, stage, kid);
        continue;
      }
      const auto g = static_cast<std::size_t>(gi);
      if (in_kernel[g]++ == 0) {
        position[g] = next++;
        kernel_of[g] = kid;
      }
      const auto& qs = circuit.gate(gi).qubits();
      touched.insert(touched.end(), qs.begin(), qs.end());
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    if (kern.qubits != touched) {
      add(report, Code::kernel_qubits,
          "kernel declares qubits " + qubit_list(kern.qubits) +
              " but its gates touch " + qubit_list(touched),
          -1, stage, kid);
    }
    const int width = static_cast<int>(kern.qubits.size());
    const bool fusion = kern.type == kernelize::KernelType::Fusion;
    // A shared-memory kernel's active set also holds the shard's 3
    // physical LSBs, whose positions are unknown at planning time.
    const int cap = fusion ? model.max_fusion_qubits : model.max_shm_qubits - 3;
    if (width > cap) {
      add(report, Code::kernel_width,
          std::string(fusion ? "fusion" : "shared-memory") + " kernel spans " +
              std::to_string(width) + " qubits, the cost model allows " +
              std::to_string(cap),
          -1, stage, kid);
    } else if (indices_ok && (width > 0 || !fusion)) {
      // fusion_kernel_cost() throws for width 0, so an empty fusion
      // kernel is not priced.
      const double want = kernelize::kernel_cost(circuit, kern, model);
      if (std::abs(kern.cost - want) >= 1e-9) {
        add(report, Code::kernel_cost,
            "kernel cost " + std::to_string(kern.cost) +
                " but the cost model gives " + std::to_string(want),
            -1, stage, kid);
      }
    }
  }
  for (std::size_t g = 0; g < num_gates; ++g) {
    if (in_kernel[g] != 1) {
      add(report, Code::kernel_coverage,
          "gate covered by " + std::to_string(in_kernel[g]) +
              " kernels (want exactly 1)",
          static_cast<int>(g), stage);
    }
  }
  if (std::abs(total - k.total_cost) >= 1e-6) {
    add(report, Code::kernel_cost,
        "total cost " + std::to_string(k.total_cost) +
            " but the kernels sum to " + std::to_string(total),
        -1, stage);
  }
  // Theorem 2: gates sharing a qubit keep their relative order.
  for (const auto& [a, b] : circuit.dependency_edges()) {
    const int pa = position[static_cast<std::size_t>(a)];
    const int pb = position[static_cast<std::size_t>(b)];
    if (pa >= 0 && pb >= 0 && pa > pb) {
      add(report, Code::kernel_order,
          "gate " + std::to_string(a) + " (kernel " +
              std::to_string(kernel_of[static_cast<std::size_t>(a)]) +
              ") must precede gate " + std::to_string(b) +
              " but the kernel sequence runs it later",
          b, stage, kernel_of[static_cast<std::size_t>(b)]);
    }
  }
}

void check_kraus(const std::vector<Matrix>& ops, int num_qubits,
                 const Tolerances& tol, bool check_cptp, VerifyReport& report,
                 const std::string& what) {
  if (num_qubits < 1 || ops.empty()) {
    add(report, Code::kraus_shape,
        what + ": empty Kraus set or non-positive arity");
    return;
  }
  const int dim = 1 << num_qubits;
  bool shapes_ok = true;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    if (ops[k].rows() != dim || ops[k].cols() != dim) {
      shapes_ok = false;
      add(report, Code::kraus_shape,
          what + ": operator " + std::to_string(k) + " is " +
              std::to_string(ops[k].rows()) + "x" +
              std::to_string(ops[k].cols()) + ", want " + std::to_string(dim) +
              "x" + std::to_string(dim));
    }
  }
  if (!shapes_ok || !check_cptp) return;
  Matrix sum(dim, dim);
  for (const Matrix& k : ops) {
    const Matrix kk = k.dagger() * k;
    for (int r = 0; r < dim; ++r)
      for (int c = 0; c < dim; ++c) sum(r, c) += kk(r, c);
  }
  const double dev = Matrix::max_abs_diff(sum, Matrix::identity(dim));
  if (dev > tol.cptp) {
    std::ostringstream os;
    os << what << ": sum K^dagger K deviates from I by " << dev
       << " (tolerance " << tol.cptp << ")";
    add(report, Code::non_cptp, os.str());
  }
}

}  // namespace

VerifyReport verify_circuit(const Circuit& circuit, VerifyLevel level,
                            const Tolerances& tol) {
  VerifyReport report;
  report.subject = "circuit '" + circuit.name() + "'";
  check_circuit_core(circuit, level, tol, /*require_dense_slots=*/true,
                     report);
  return report;
}

VerifyReport verify_staged(const Circuit& circuit,
                           const staging::StagedCircuit& staged,
                           const staging::MachineShape& shape) {
  VerifyReport report;
  report.subject = "staging of '" + circuit.name() + "'";
  if (shape.total() != circuit.num_qubits()) {
    add(report, Code::partition_not_permutation,
        "machine shape totals " + std::to_string(shape.total()) +
            " qubits, circuit has " + std::to_string(circuit.num_qubits()));
    return report;
  }
  // Coverage: each gate in exactly one stage.
  std::vector<int> stage_of(static_cast<std::size_t>(circuit.num_gates()), -1);
  for (std::size_t k = 0; k < staged.stages.size(); ++k) {
    const int si = static_cast<int>(k);
    for (int gi : staged.stages[k].gate_indices) {
      if (gi < 0 || gi >= circuit.num_gates()) {
        add(report, Code::gate_unstaged,
            "stage lists gate index " + std::to_string(gi) + " outside [0, " +
                std::to_string(circuit.num_gates()) + ")",
            gi, si);
        continue;
      }
      if (stage_of[static_cast<std::size_t>(gi)] >= 0) {
        add(report, Code::gate_double_staged,
            "gate already assigned to stage " +
                std::to_string(stage_of[static_cast<std::size_t>(gi)]),
            gi, si);
      } else {
        stage_of[static_cast<std::size_t>(gi)] = si;
      }
    }
  }
  for (int gi = 0; gi < circuit.num_gates(); ++gi) {
    if (stage_of[static_cast<std::size_t>(gi)] < 0) {
      add(report, Code::gate_unstaged, "gate assigned to no stage", gi);
    }
  }
  // Order: down-closed stage prefixes along every dependency edge.
  for (const auto& [a, b] : circuit.dependency_edges()) {
    const int sa = stage_of[static_cast<std::size_t>(a)];
    const int sb = stage_of[static_cast<std::size_t>(b)];
    if (sa >= 0 && sb >= 0 && sa > sb) {
      add(report, Code::stage_order,
          "gate " + std::to_string(a) + " (stage " + std::to_string(sa) +
              ") must precede gate " + std::to_string(b) + " (stage " +
              std::to_string(sb) + ")",
          b, sb);
    }
  }
  // Partitions and locality per stage.
  for (std::size_t k = 0; k < staged.stages.size(); ++k) {
    const int si = static_cast<int>(k);
    check_partition(staged.stages[k].partition, circuit.num_qubits(), shape,
                    report, si);
    check_locality(circuit, staged.stages[k].gate_indices,
                   staged.stages[k].partition, report, si);
  }
  return report;
}

VerifyReport verify_kernelization(const Circuit& circuit,
                                  const kernelize::Kernelization& kernels,
                                  const kernelize::CostModel& model) {
  VerifyReport report;
  report.subject = "kernelization of '" + circuit.name() + "'";
  check_kernels(circuit, kernels, model, report);
  return report;
}

VerifyReport verify_plan(const exec::ExecutionPlan& plan,
                         const staging::MachineShape& shape,
                         const kernelize::CostModel& model,
                         const Circuit* original, VerifyLevel level,
                         const Tolerances& tol) {
  VerifyReport report;
  report.subject = "execution plan (" + std::to_string(plan.stages.size()) +
                   " stages)";
  std::vector<int> covered;
  if (original != nullptr)
    covered.assign(static_cast<std::size_t>(original->num_gates()), 0);
  for (std::size_t k = 0; k < plan.stages.size(); ++k) {
    const int si = static_cast<int>(k);
    const exec::PlannedStage& ps = plan.stages[k];
    const Circuit& sub = ps.subcircuit;
    if (sub.num_qubits() != shape.total()) {
      add(report, Code::stage_subcircuit_mismatch,
          "stage subcircuit spans " + std::to_string(sub.num_qubits()) +
              " qubits, shape totals " + std::to_string(shape.total()),
          -1, si);
    }
    if (sub.num_gates() != static_cast<int>(ps.original_indices.size())) {
      add(report, Code::stage_subcircuit_mismatch,
          "subcircuit holds " + std::to_string(sub.num_gates()) +
              " gates but original_indices lists " +
              std::to_string(ps.original_indices.size()),
          -1, si);
    }
    check_partition(ps.partition, sub.num_qubits(), shape, report, si);
    // Locality under the stage's own partition.
    std::vector<int> all(static_cast<std::size_t>(sub.num_gates()));
    for (int i = 0; i < sub.num_gates(); ++i) all[static_cast<std::size_t>(i)] = i;
    check_locality(sub, all, ps.partition, report, si);
    // Subcircuit gate sanity (slot subsets are legal per stage).
    check_circuit_core(sub, level, tol, /*require_dense_slots=*/false, report,
                       si);
    // Cross-checks against the original circuit.
    if (original != nullptr) {
      for (std::size_t i = 0; i < ps.original_indices.size(); ++i) {
        const int oi = ps.original_indices[i];
        if (oi < 0 || oi >= original->num_gates()) {
          add(report, Code::stage_subcircuit_mismatch,
              "original gate index " + std::to_string(oi) + " outside [0, " +
                  std::to_string(original->num_gates()) + ")",
              static_cast<int>(i), si);
          continue;
        }
        ++covered[static_cast<std::size_t>(oi)];
        if (static_cast<int>(i) < sub.num_gates()) {
          const Gate& got = sub.gate(static_cast<int>(i));
          const Gate& want = original->gate(oi);
          if (got.kind() != want.kind() || got.qubits() != want.qubits() ||
              got.params() != want.params()) {
            add(report, Code::stage_subcircuit_mismatch,
                "subcircuit gate " + got.to_string() +
                    " does not match original gate " + want.to_string(),
                static_cast<int>(i), si);
          }
        }
      }
    }
    check_kernels(sub, ps.kernels, model, report, si);
  }
  if (original != nullptr) {
    for (int gi = 0; gi < original->num_gates(); ++gi) {
      if (covered[static_cast<std::size_t>(gi)] != 1) {
        add(report, Code::stage_subcircuit_mismatch,
            "original gate staged " +
                std::to_string(covered[static_cast<std::size_t>(gi)]) +
                " times across the plan (want exactly 1)",
            gi);
      }
    }
  }
  return report;
}

VerifyReport verify_compiled(const CompiledCircuit& compiled) {
  VerifyReport report;
  report.subject = "compiled circuit";
  if (!compiled.valid()) {
    add(report, Code::slot_table_mismatch,
        "handle is invalid (default-constructed or plan missing)");
    return report;
  }
  report.subject = "compiled circuit '" + compiled.circuit().name() + "'";
  const auto& slots = compiled.param_slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].index != static_cast<int>(i)) {
      add(report, Code::slot_table_mismatch,
          "slot table entry " + std::to_string(i) + " carries index " +
              std::to_string(slots[i].index));
    }
  }
  // Every "$k" the plan references must have a table entry.
  const int num_slots = static_cast<int>(slots.size());
  for (std::size_t k = 0; k < compiled.plan()->stages.size(); ++k) {
    const Circuit& sub = compiled.plan()->stages[k].subcircuit;
    for (int gi = 0; gi < sub.num_gates(); ++gi) {
      for (const Param& p : sub.gate(gi).params()) {
        const int id = p.slot_index();
        if (p.is_symbolic() && id < 0) {
          add(report, Code::slot_table_mismatch,
              "plan parameter " + p.to_string() +
                  " is not a pure slot reference",
              gi, static_cast<int>(k));
        } else if (id >= num_slots) {
          add(report, Code::slot_table_mismatch,
              "plan references slot $" + std::to_string(id) +
                  " but the table holds " + std::to_string(num_slots) +
                  " slots",
              gi, static_cast<int>(k));
        }
      }
    }
  }
  // Slot expressions draw only on the handle's exposed symbols.
  const std::unordered_set<std::string> exposed(compiled.symbols().begin(),
                                                compiled.symbols().end());
  for (const auto& slot : slots) {
    for (const std::string& sym : slot.expr.symbols()) {
      if (exposed.count(sym) == 0) {
        add(report, Code::symbol_unbound,
            "slot $" + std::to_string(slot.index) + " expression " +
                slot.expr.to_string() + " uses symbol '" + sym +
                "' the handle does not expose",
            slot.gate);
      }
    }
  }
  return report;
}

VerifyReport verify_stage_program(const exec::StageProgram& program,
                                  int num_local, int num_shard_bits) {
  VerifyReport report;
  report.subject = "stage program";
  const Index shard_size = Index{1} << num_local;
  for (std::size_t ki = 0; ki < program.kernels.size(); ++ki) {
    const int kid = static_cast<int>(ki);
    const exec::KernelProgram& kp = *program.kernels[ki];
    // Pattern bits: sorted, unique, within the shard-index width.
    for (std::size_t i = 0; i < kp.pattern_bits.size(); ++i) {
      const int b = kp.pattern_bits[i];
      if (b < 0 || b >= num_shard_bits) {
        add(report, Code::pattern_bits_invalid,
            "pattern bit " + std::to_string(b) + " outside [0, " +
                std::to_string(num_shard_bits) + ")",
            -1, -1, kid);
      }
      if (i > 0 && kp.pattern_bits[i - 1] >= b) {
        add(report, Code::pattern_bits_invalid,
            "pattern bits not strictly ascending", -1, -1, kid);
      }
    }
    // Variant table: exactly 2^j entries for j pattern bits.
    const std::size_t want =
        std::size_t{1} << std::min<std::size_t>(kp.pattern_bits.size(), 63);
    if (kp.variants.size() != want) {
      add(report, Code::variant_count,
          std::to_string(kp.variants.size()) + " variants for " +
              std::to_string(kp.pattern_bits.size()) +
              " pattern bits (want " + std::to_string(want) + ")",
          -1, -1, kid);
    }
    // Shm gather/scatter tables: bijections into the shard bounds.
    for (const exec::KernelVariant& v : kp.variants) {
      if (v.op != exec::KernelVariant::Op::Shm) continue;
      const ShmProgram& shm = v.shm;
      const std::size_t batch = std::size_t{1} << shm.active.size();
      if (shm.offset.size() != batch) {
        add(report, Code::gather_not_bijective,
            "offset table holds " + std::to_string(shm.offset.size()) +
                " entries for " + std::to_string(shm.active.size()) +
                " active bits (want " + std::to_string(batch) + ")",
            -1, -1, kid);
        continue;
      }
      std::unordered_set<Index> seen;
      for (Index off : shm.offset) {
        if (off >= shard_size) {
          add(report, Code::gather_not_bijective,
              "gather offset " + std::to_string(off) +
                  " exceeds the shard bound " + std::to_string(shard_size),
              -1, -1, kid);
        } else if (!seen.insert(off).second) {
          add(report, Code::gather_not_bijective,
              "gather offset " + std::to_string(off) +
                  " repeats (table is not injective)",
              -1, -1, kid);
        }
      }
    }
  }
  return report;
}

VerifyReport verify_kraus_ops(const std::vector<Matrix>& ops, int num_qubits,
                              const Tolerances& tol) {
  VerifyReport report;
  report.subject = "Kraus set";
  check_kraus(ops, num_qubits, tol, /*check_cptp=*/true, report, "Kraus set");
  return report;
}

VerifyReport verify_readout(const noise::ReadoutError& readout, int qubit) {
  VerifyReport report;
  report.subject = "readout confusion";
  const auto bad = [](double p) { return !(p >= 0.0 && p <= 1.0); };
  if (bad(readout.p01) || bad(readout.p10)) {
    std::ostringstream os;
    os << "qubit " << qubit << ": confusion probabilities (p01=" << readout.p01
       << ", p10=" << readout.p10 << ") must lie in [0, 1]";
    add(report, Code::readout_not_stochastic, os.str());
  }
  return report;
}

VerifyReport verify_noise_model(const noise::NoiseModel& model, int num_qubits,
                                VerifyLevel level, const Tolerances& tol) {
  VerifyReport report;
  report.subject = "noise model";
  for (const noise::KrausChannel* ch : model.channels()) {
    check_kraus(ch->kraus_ops(), ch->num_qubits(), tol,
                /*check_cptp=*/level >= VerifyLevel::paranoid, report,
                "channel '" + ch->name() + "'");
  }
  for (int q = 0; q < num_qubits; ++q)
    report.merge(verify_readout(model.readout_for(q), q));
  report.subject = "noise model";
  return report;
}

void check(const VerifyReport& report, ErrorCode code) {
  if (report.ok()) return;
  throw Error(report.to_string(), code);
}

}  // namespace atlas::verify
