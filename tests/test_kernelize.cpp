// Kernelization tests: cost model, attachment preprocessing, the
// KERNELIZE DP (validity, optimality vs brute force on tiny circuits,
// Theorem 6 vs ORDEREDKERNELIZE), and the baselines.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "circuits/families.h"
#include "common/bits.h"
#include "common/fnv.h"
#include "kernelize/attach.h"
#include "kernelize/dp_kernelizer.h"
#include "kernelize/greedy.h"
#include "kernelize/ordered.h"
#include "verify_matchers.h"

namespace atlas {
namespace kernelize {
namespace {

TEST(CostModel, DefaultsAreSane) {
  const CostModel m = CostModel::default_model();
  EXPECT_EQ(m.max_fusion_qubits + 1, static_cast<int>(m.fusion_cost.size()));
  // Costs grow with width.
  for (int k = 2; k <= m.max_fusion_qubits; ++k)
    EXPECT_GE(m.fusion_cost[k], m.fusion_cost[k - 1]);
  // The paper's greedy baseline packs to 5 qubits because that is the
  // most cost-efficient width.
  EXPECT_EQ(m.most_efficient_fusion_size(), 5);
}

TEST(CostModel, ShmCostByTargets) {
  const CostModel m = CostModel::default_model();
  EXPECT_LT(m.shm_gate_cost(Gate::h(0)), m.shm_gate_cost(Gate::swap(0, 1)));
  // Controls resolved in scratch memory: cx costs like a 1-target gate.
  EXPECT_DOUBLE_EQ(m.shm_gate_cost(Gate::cx(0, 1)), m.shm_gate_1q);
}

TEST(Attach, SingleQubitGatesJoinHosts) {
  Circuit c(3);
  c.add(Gate::h(0));       // leading 1q: waits for next mq gate on q0
  c.add(Gate::cx(0, 1));   // item 0: absorbs h(0)
  c.add(Gate::t(1));       // adjacent to item 0 -> attached
  c.add(Gate::cz(1, 2));   // item 1
  const auto items = attach_single_qubit_gates(c);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].gate_indices, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(items[1].gate_indices, (std::vector<int>{3}));
}

TEST(Attach, PureSingleQubitChainsBecomeItems) {
  Circuit c(2);
  c.add(Gate::h(0));
  c.add(Gate::t(0));
  c.add(Gate::h(1));
  const auto items = attach_single_qubit_gates(c);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].gate_indices, (std::vector<int>{0, 1}));
  EXPECT_EQ(items[1].gate_indices, (std::vector<int>{2}));
}

TEST(Attach, EveryGateExactlyOnce) {
  const Circuit c = circuits::random_circuit(8, 120, 5);
  const auto items = attach_single_qubit_gates(c);
  std::vector<int> seen(c.num_gates(), 0);
  for (const auto& it : items)
    for (int g : it.gate_indices) seen[g]++;
  for (int g = 0; g < c.num_gates(); ++g) EXPECT_EQ(seen[g], 1);
}

// ---------------------------------------------------------------------------

class KernelizeFamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelizeFamilyTest, DpProducesValidKernelization) {
  const Circuit c = circuits::make_family(GetParam(), 10);
  const CostModel m = CostModel::default_model();
  const Kernelization k = kernelize_dp(c, m);
  EXPECT_TRUE(clean(verify::verify_kernelization(c, k, m)));
  EXPECT_GT(k.total_cost, 0.0);
}

TEST_P(KernelizeFamilyTest, OrderedProducesValidKernelization) {
  const Circuit c = circuits::make_family(GetParam(), 10);
  const CostModel m = CostModel::default_model();
  const Kernelization k = kernelize_ordered(c, m);
  EXPECT_TRUE(clean(verify::verify_kernelization(c, k, m)));
}

TEST_P(KernelizeFamilyTest, GreedyProducesValidKernelization) {
  const Circuit c = circuits::make_family(GetParam(), 10);
  const CostModel m = CostModel::default_model();
  const Kernelization k = kernelize_greedy(c, m);
  EXPECT_TRUE(clean(verify::verify_kernelization(c, k, m)));
}

TEST_P(KernelizeFamilyTest, Theorem6DpAtMostOrdered) {
  // Theorem 6: KERNELIZE is at least as good as ORDEREDKERNELIZE.
  const Circuit c = circuits::make_family(GetParam(), 10);
  const CostModel m = CostModel::default_model();
  const double dp = kernelize_dp(c, m).total_cost;
  const double ordered = kernelize_ordered(c, m).total_cost;
  EXPECT_LE(dp, ordered + 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, KernelizeFamilyTest,
                         ::testing::ValuesIn(circuits::family_names()));

TEST(Kernelize, Theorem6OnRandomCircuits) {
  const CostModel m = CostModel::default_model();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Circuit c = circuits::random_circuit(7, 40, seed);
    const double dp = kernelize_dp(c, m).total_cost;
    const double ordered = kernelize_ordered(c, m).total_cost;
    EXPECT_LE(dp, ordered + 1e-9) << "seed " << seed;
  }
}

// Brute-force optimal contiguous kernelization for tiny circuits: the
// ordered DP is provably optimal for Problem 1 (contiguous kernels),
// so verify it against explicit enumeration of all segmentations.
double brute_force_contiguous(const Circuit& c, const CostModel& m) {
  const int ng = c.num_gates();
  double best = std::numeric_limits<double>::infinity();
  // Each of the 2^(ng-1) cut patterns is a segmentation.
  for (int cuts = 0; cuts < (1 << (ng - 1)); ++cuts) {
    double total = 0;
    int start = 0;
    bool ok = true;
    for (int end = 1; end <= ng && ok; ++end) {
      const bool boundary = end == ng || ((cuts >> (end - 1)) & 1);
      if (!boundary) continue;
      std::uint64_t qubits = 0;
      double shm = 0;
      for (int g = start; g < end; ++g) {
        for (Qubit q : c.gate(g).qubits()) qubits |= bit(q);
        shm += m.shm_gate_cost(c.gate(g));
      }
      const int width = popcount(qubits);
      double seg = std::numeric_limits<double>::infinity();
      if (width <= m.max_fusion_qubits) seg = m.fusion_kernel_cost(width);
      if (popcount(qubits) + 3 <= m.max_shm_qubits)
        seg = std::min(seg, m.shm_alpha + shm);
      if (seg == std::numeric_limits<double>::infinity()) ok = false;
      total += seg;
      start = end;
    }
    if (ok) best = std::min(best, total);
  }
  return best;
}

TEST(Kernelize, OrderedMatchesBruteForceOnTinyCircuits) {
  const CostModel m = CostModel::default_model();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Circuit c = circuits::random_circuit(6, 10, seed);
    EXPECT_NEAR(kernelize_ordered(c, m).total_cost,
                brute_force_contiguous(c, m), 1e-9)
        << "seed " << seed;
  }
}

TEST(Kernelize, DpAtMostBruteForceContiguous) {
  // KERNELIZE explores a superset of contiguous segmentations
  // (Theorem 3), so it can only do better.
  const CostModel m = CostModel::default_model();
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    const Circuit c = circuits::random_circuit(6, 9, seed);
    EXPECT_LE(kernelize_dp(c, m).total_cost,
              brute_force_contiguous(c, m) + 1e-9)
        << "seed " << seed;
  }
}

TEST(Kernelize, DpBeatsOrderedOnInterleavedStructure) {
  // Two independent gate groups interleaved in the sequence: the
  // ordered DP cannot separate them, KERNELIZE can (the paper's
  // motivating example for Algorithm 3 vs Algorithm 5).
  // Groups of 6 qubits each: their union (12 + the 3 LSBs) exceeds
  // both the fusion width and the shared-memory active-qubit cap, so a
  // contiguous segmentation must keep cutting across the interleaving.
  Circuit c(12);
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 5; ++i) {
      c.add(Gate::cx(i, i + 1));      // group A on {0..5}
      c.add(Gate::cx(6 + i, 7 + i));  // group B on {6..11}
    }
  }
  const CostModel m = CostModel::default_model();
  const double dp = kernelize_dp(c, m).total_cost;
  const double ordered = kernelize_ordered(c, m).total_cost;
  EXPECT_LT(dp, ordered - 1e-9);
}

TEST(Kernelize, PruningThresholdTradesQuality) {
  // Larger T should never produce a worse kernelization (Fig. 13's
  // monotone trend), modulo ties.
  const Circuit c = circuits::su2random(9);
  const CostModel m = CostModel::default_model();
  DpOptions tight;
  tight.prune_threshold = 4;
  DpOptions loose;
  loose.prune_threshold = 500;
  const double cost_tight = kernelize_dp(c, m, tight).total_cost;
  const double cost_loose = kernelize_dp(c, m, loose).total_cost;
  EXPECT_LE(cost_loose, cost_tight + 1e-9);
}

TEST(Kernelize, SingleGateCircuit) {
  Circuit c(3);
  c.add(Gate::ccx(0, 1, 2));
  const CostModel m = CostModel::default_model();
  const Kernelization k = kernelize_dp(c, m);
  EXPECT_TRUE(clean(verify::verify_kernelization(c, k, m)));
  ASSERT_EQ(k.kernels.size(), 1u);
}

TEST(Kernelize, EmptyCircuit) {
  Circuit c(4);
  const CostModel m = CostModel::default_model();
  const Kernelization k = kernelize_dp(c, m);
  EXPECT_TRUE(k.kernels.empty());
  EXPECT_EQ(k.total_cost, 0.0);
}

TEST(Kernelize, GreedyPacksToWidthLimit) {
  // A chain of disjoint 1q+2q gates: greedy should produce kernels of
  // at most 5 qubits.
  const Circuit c = circuits::ghz(12);
  const CostModel m = CostModel::default_model();
  const Kernelization k = kernelize_greedy(c, m);
  for (const Kernel& kernel : k.kernels)
    EXPECT_LE(kernel.qubits.size(), 5u);
}

TEST(Kernelize, HhlManyGatesFewQubitsCompletes) {
  // Fig. 25/37 case study shape: gate count far exceeds qubit count.
  const Circuit c = circuits::hhl(6, 8);
  const CostModel m = CostModel::default_model();
  DpOptions opt;
  opt.prune_threshold = 64;
  const Kernelization dp = kernelize_dp(c, m, opt);
  EXPECT_TRUE(clean(verify::verify_kernelization(c, dp, m)));
  const Kernelization ordered = kernelize_ordered(c, m);
  EXPECT_LE(dp.total_cost, ordered.total_cost + 1e-9);
}

// Plan identity: the DP's search (transitions, summation order, the
// frontier's iteration order that prune() and the final ranking break
// ties by) is pinned by fingerprints of its output. A fingerprint
// folds each kernel's type, gate indices and cost bits, then the bits
// of total_cost. T = 16 prunes on nearly every step, so it pins the
// tie-breaking; T = 500 is the paper's threshold. The expected values
// were recorded from the DP before its allocation-free rewrite; a
// deliberate plan change (a new cost model, say) must update them and
// say so in CHANGES.md.
std::uint64_t plan_fingerprint(const Kernelization& k) {
  Fnv f;
  for (const Kernel& kernel : k.kernels) {
    f.mix(static_cast<std::uint64_t>(kernel.type));
    f.mix(kernel.gate_indices.size());
    for (int gi : kernel.gate_indices) f.mix(static_cast<std::uint64_t>(gi));
    f.mix_double(kernel.cost);
  }
  f.mix_double(k.total_cost);
  return f.value();
}

TEST(Kernelize, DpPlansMatchParentFingerprints) {
  struct Case {
    std::string name;
    Circuit circuit;
    std::uint64_t at_t500, at_t16;
  };
  const std::uint64_t kRandom[8][2] = {
      {0xc660c2d19d05981e, 0xaf6137b05e004e5b},
      {0x18c912455ba6b8ea, 0xc83e3ae062d23deb},
      {0xbbde2992cb3d7787, 0xa302c3f44696194e},
      {0xd2e1d75750d96864, 0x7fdba354a7109201},
      {0x853a89fcaa37183, 0xed4afa9e7a3c9667},
      {0x5c4beb9ee4778133, 0x134674c6b2545c53},
      {0x5073c472e2ffe7e5, 0xd35a4504ac726ce8},
      {0x42719e01246d5797, 0x9927e586905e12b0},
  };
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      kFamilies = {
          {"ae", {0xdfbcf26d9096d047, 0x6563f83aed494a9}},
          {"dj", {0x68b170932932f39e, 0x68b170932932f39e}},
          {"ghz", {0xf251996204ec29c4, 0x4e65805abd5b1f44}},
          {"graphstate", {0x9c24e223fe0528e2, 0x23000a162a7dfc90}},
          {"ising", {0xc7edf72df313d9dd, 0xc7edf72df313d9dd}},
          {"qft", {0x78fcd1c0870095d6, 0xf634a7c3044e1c0}},
          {"qpeexact", {0xac778bb11b04b692, 0x2c642a6477d3e6ab}},
          {"qsvm", {0xb3ce92de055cd05d, 0xb3ce92de055cd05d}},
          {"su2random", {0x4eeb8e2d6bff95bf, 0x701f9a8c6a48c698}},
          {"vqc", {0xe389278c69dc4a34, 0x184331a1ac7fed89}},
          {"wstate", {0x19f3bca994a4c2cd, 0x73d154dd903936a0}},
      };
  std::vector<Case> cases;
  for (const std::string& family : circuits::family_names()) {
    const auto& [t500, t16] = kFamilies.at(family);
    cases.push_back({family, circuits::make_family(family, 14), t500, t16});
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    cases.push_back({"random seed " + std::to_string(seed),
                     circuits::random_circuit(10, 150, seed),
                     kRandom[seed - 1][0], kRandom[seed - 1][1]});
  ASSERT_EQ(cases.size(), 19u);

  const CostModel m = CostModel::default_model();
  for (const Case& c : cases) {
    for (const auto& [threshold, expected] :
         {std::pair{500, c.at_t500}, std::pair{16, c.at_t16}}) {
      DpOptions opt;
      opt.prune_threshold = threshold;
      const Kernelization k = kernelize_dp(c.circuit, m, opt);
      EXPECT_EQ(plan_fingerprint(k), expected)
          << c.name << " at T=" << threshold << ": 0x" << std::hex
          << plan_fingerprint(k);
    }
  }
}

}  // namespace
}  // namespace kernelize
}  // namespace atlas
