#pragma once

/// \file verify.h
/// An MLIR-verifier-style invariant checker for every hand-off contract
/// in the compile pipeline and the serving data plane. Each checker
/// walks one artifact — circuit, staged circuit, kernelization,
/// execution plan, compiled handle, stage program, noise model — and
/// returns a VerifyReport listing *every* violated invariant as a
/// structured VerifyDiagnostic (code + location) instead of throwing
/// on the first. These checkers are the only ones the engine has for
/// its phase contracts.
///
/// The checkers trust nothing about provenance: artifacts assembled by
/// hand, deserialized from a cache, or corrupted by a buggy pass are
/// all first-class inputs. That is the point — the pipeline's phase
/// contracts (slot-canonical parameters, stage qubit-locality, kernel
/// order and insularity, gather-table bijectivity) would otherwise be
/// enforced only where a downstream crash happened to notice.
///
/// Invariant catalog: docs/VERIFY.md. Wiring: in every build,
/// CompilePipeline runs the phase-boundary checkers at
/// VerifyLevel::boundaries (the default); `paranoid` adds the numeric
/// checks (unitarity, CPTP). atlas-lint drives the same checkers over
/// QASM files from the CLI.

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "ir/circuit.h"
#include "ir/matrix.h"
#include "verify/diagnostic.h"

namespace atlas {
class CompiledCircuit;
namespace exec {
struct ExecutionPlan;
struct StageProgram;
}  // namespace exec
namespace kernelize {
struct CostModel;
struct Kernelization;
}  // namespace kernelize
namespace noise {
class NoiseModel;
struct ReadoutError;
}  // namespace noise
namespace staging {
struct StagedCircuit;
struct MachineShape;
struct QubitPartition;
}  // namespace staging
}  // namespace atlas

namespace atlas::verify {

/// Numeric tolerances for the paranoid-level checks.
struct Tolerances {
  double unitarity = 1e-8;  ///< max |U U† - I| entry
  double cptp = 1e-8;       ///< max |sum K†K - I| entry
};

/// Circuit invariants: qubit ids in [0, num_qubits), no duplicate
/// qubits within a gate, per-kind qubit/parameter arity, Unitary
/// matrix shapes, and — when "$k" engine-slot symbols appear — slot
/// denseness (the canonical-form contract: slots are exactly
/// {$0..$k-1}, each a pure slot reference). At `paranoid`, every
/// constant explicit matrix is additionally checked for unitarity
/// within `tol.unitarity` (named kinds are unitary by construction and
/// are not re-derived).
VerifyReport verify_circuit(const Circuit& circuit,
                            VerifyLevel level = VerifyLevel::boundaries,
                            const Tolerances& tol = {});

/// Staging invariants (the stage phase's hand-off contract): every
/// gate in exactly one stage, stages dependency-ordered (each stage's
/// gate set down-closed), every gate's non-insular qubits local in its
/// stage, and every stage partition a permutation of [0, n) with the
/// shape's local/regional/global sizes.
VerifyReport verify_staged(const Circuit& circuit,
                           const staging::StagedCircuit& staged,
                           const staging::MachineShape& shape);

/// Kernelization invariants (the kernelize phase's hand-off contract
/// for one stage subcircuit): every gate in exactly one kernel, each
/// kernel's qubits the ascending union of its gates' qubits, the
/// concatenated kernel sequence keeping every pair of gates that share
/// a qubit in circuit order (Theorem 2), fusion kernels at most
/// `model.max_fusion_qubits` wide and shared-memory kernels at most
/// `model.max_shm_qubits - 3`, and each kernel's `cost` and the
/// `total_cost` in sync with `model`.
VerifyReport verify_kernelization(const Circuit& circuit,
                                  const kernelize::Kernelization& kernels,
                                  const kernelize::CostModel& model);

/// Plan invariants, per stage: partition validity, subcircuit
/// consistent with original_indices, stage locality under the stage's
/// own partition, and verify_kernelization of the stage's kernels under
/// `model`. When `original` is non-null, additionally checks that
/// original_indices tile [0, original->num_gates()) exactly once
/// across stages and each subcircuit gate matches the original gate it
/// claims to be.
VerifyReport verify_plan(const exec::ExecutionPlan& plan,
                         const staging::MachineShape& shape,
                         const kernelize::CostModel& model,
                         const Circuit* original = nullptr,
                         VerifyLevel level = VerifyLevel::boundaries,
                         const Tolerances& tol = {});

/// Compiled-handle invariants (the program phase's hand-off contract):
/// a valid plan, a slot table whose indices are dense [0, count), plan
/// gates referencing only slots the table defines (no dangling "$k"),
/// and slot expressions built only from symbols the handle exposes.
VerifyReport verify_compiled(const CompiledCircuit& compiled);

/// Stage-program invariants (bind-time output): per kernel, variant
/// count == 2^|pattern_bits| with pattern bits sorted, unique, and
/// within the shard-index width `num_shard_bits`; per shm variant, the
/// gather/scatter offset table is a bijection into the shard bounds
/// (2^num_local amplitudes): distinct offsets, each below the bound,
/// table size 2^|active|.
VerifyReport verify_stage_program(const exec::StageProgram& program,
                                  int num_local, int num_shard_bits);

/// Kraus-set invariants: every operator square 2^num_qubits, plus the
/// completeness sum K†K = I within `tol.cptp` — the CPTP contract the
/// channel factories promise but hand-assembled or deserialized sets
/// may violate. (verify_noise_model defers the numeric CPTP check to
/// `paranoid`; calling this directly always runs it.)
VerifyReport verify_kraus_ops(const std::vector<Matrix>& ops, int num_qubits,
                              const Tolerances& tol = {});

/// Readout-confusion invariants for one qubit's ReadoutError: both
/// conditional error probabilities in [0, 1] (rows of the 2x2
/// confusion matrix stochastic).
VerifyReport verify_readout(const noise::ReadoutError& readout, int qubit);

/// Noise-model invariants over a model attached to an `num_qubits`
/// circuit: every reachable channel's Kraus set (CPTP at `paranoid`),
/// and every qubit's readout confusion stochastic.
VerifyReport verify_noise_model(const noise::NoiseModel& model,
                                int num_qubits,
                                VerifyLevel level = VerifyLevel::paranoid,
                                const Tolerances& tol = {});

/// Throws atlas::Error carrying `report.to_string()` (every diagnostic,
/// one per line) when the report is not ok; no-op otherwise. `code`
/// classifies the failure for layers that translate exceptions —
/// internal for pipeline-invariant breaks, invalid_argument at API
/// boundaries checking caller-supplied artifacts (the serve QASM
/// ingest).
void check(const VerifyReport& report,
           ErrorCode code = ErrorCode::internal);

}  // namespace atlas::verify
