#include "ir/circuit.h"

#include <algorithm>

#include "common/error.h"
#include "common/fnv.h"

namespace atlas {

Circuit::Circuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)) {
  ATLAS_CHECK(num_qubits >= 0, "negative qubit count");
}

void Circuit::add(Gate g) {
  for (Qubit q : g.qubits()) {
    ATLAS_CHECK(q < num_qubits_, "gate " << g.to_string() << " uses qubit "
                                         << q << " but circuit has only "
                                         << num_qubits_ << " qubits");
  }
  gates_.push_back(std::move(g));
}

std::vector<std::pair<int, int>> Circuit::dependency_edges() const {
  std::vector<std::pair<int, int>> edges;
  std::vector<int> last_on_qubit(num_qubits_, -1);
  for (int i = 0; i < num_gates(); ++i) {
    for (Qubit q : gates_[i].qubits()) {
      if (last_on_qubit[q] >= 0) edges.emplace_back(last_on_qubit[q], i);
      last_on_qubit[q] = i;
    }
  }
  // A pair of gates sharing several qubits produces duplicate edges;
  // deduplicate to keep downstream models small.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<std::vector<int>> Circuit::predecessors() const {
  std::vector<std::vector<int>> preds(num_gates());
  for (const auto& [a, b] : dependency_edges()) preds[b].push_back(a);
  return preds;
}

std::vector<Qubit> Circuit::non_insular_qubit_union() const {
  std::vector<bool> used(num_qubits_, false);
  for (const Gate& g : gates_)
    for (Qubit q : g.non_insular_qubits()) used[q] = true;
  std::vector<Qubit> out;
  for (Qubit q = 0; q < num_qubits_; ++q)
    if (used[q]) out.push_back(q);
  return out;
}

int Circuit::num_multi_qubit_gates() const {
  int n = 0;
  for (const Gate& g : gates_)
    if (g.num_qubits() >= 2) ++n;
  return n;
}

namespace {

std::uint64_t hash_circuit(const Circuit& circuit, bool structural) {
  // Distinct bases keep a circuit's structural and value-sensitive
  // hashes apart.
  Fnv f(structural ? 0x2b992ddfa23249d6ull : Fnv::kDefaultBasis);
  f.mix(static_cast<std::uint64_t>(circuit.num_qubits()));
  for (const Gate& g : circuit.gates()) {
    f.mix(static_cast<std::uint64_t>(g.kind()));
    f.mix(static_cast<std::uint64_t>(g.num_controls()));
    for (Qubit q : g.qubits()) f.mix(static_cast<std::uint64_t>(q));
    f.mix(g.params().size());
    if (!structural) {
      for (const Param& p : g.params()) {
        f.mix_double(p.constant_term());
        f.mix(p.terms().size());
        for (const auto& [sym, coeff] : p.terms()) {
          f.mix_string(sym);
          f.mix_double(coeff);
        }
      }
    }
    if (g.kind() == GateKind::Unitary) {
      const Matrix m = g.target_matrix();
      for (const Amp& a : m.data()) {
        f.mix_double(a.real());
        f.mix_double(a.imag());
      }
    }
  }
  return f.value();
}

}  // namespace

std::uint64_t Circuit::fingerprint() const {
  return hash_circuit(*this, /*structural=*/false);
}

std::uint64_t Circuit::structural_fingerprint() const {
  return hash_circuit(*this, /*structural=*/true);
}

bool Circuit::is_parameterized() const {
  for (const Gate& g : gates_)
    if (g.is_parameterized()) return true;
  return false;
}

std::vector<std::string> Circuit::symbols() const {
  std::vector<std::string> out;
  for (const Gate& g : gates_) g.collect_symbols(out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Circuit Circuit::bind(const ParamBinding& binding) const {
  Circuit bound(num_qubits_, name_);
  bound.gates_.reserve(gates_.size());
  for (const Gate& g : gates_) bound.gates_.push_back(g.bind(binding));
  return bound;
}

Circuit Circuit::subcircuit(const std::vector<int>& gate_indices) const {
  Circuit sub(num_qubits_, name_);
  for (int i : gate_indices) {
    ATLAS_CHECK(i >= 0 && i < num_gates(), "bad gate index " << i);
    sub.add(gates_[i]);
  }
  return sub;
}

}  // namespace atlas
