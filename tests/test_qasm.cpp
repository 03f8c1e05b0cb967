// QASM parser/printer tests: parsing, expression evaluation, error
// reporting, and semantic round-trips through simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <string>
#include <vector>

#include "circuits/families.h"
#include "opt/pass_manager.h"
#include "qasm/qasm.h"
#include "sim/reference.h"

namespace atlas {
namespace {

TEST(Qasm, ParsesBasicProgram) {
  const Circuit c = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0], q[1];
rz(pi/4) q[2];
measure q[0] -> c[0];
)");
  EXPECT_EQ(c.num_qubits(), 3);
  ASSERT_EQ(c.num_gates(), 3);
  EXPECT_EQ(c.gate(0).kind(), GateKind::H);
  EXPECT_EQ(c.gate(1).kind(), GateKind::CX);
  EXPECT_EQ(c.gate(2).kind(), GateKind::RZ);
  EXPECT_NEAR(c.gate(2).param_value(0), std::numbers::pi / 4, 1e-12);
}

TEST(Qasm, ExpressionArithmetic) {
  const Circuit c = qasm::parse(
      "qreg q[1]; rz(-pi) q[0]; rz(2*pi/8) q[0]; rz((1+2)*0.5) q[0];"
      "rz(pi*(1-0.5)) q[0];");
  EXPECT_NEAR(c.gate(0).param_value(0), -std::numbers::pi, 1e-12);
  EXPECT_NEAR(c.gate(1).param_value(0), std::numbers::pi / 4, 1e-12);
  EXPECT_NEAR(c.gate(2).param_value(0), 1.5, 1e-12);
  EXPECT_NEAR(c.gate(3).param_value(0), std::numbers::pi / 2, 1e-12);
}

TEST(Qasm, CommentsIgnored) {
  const Circuit c = qasm::parse(
      "// header comment\nqreg q[1];\n// another\nh q[0]; // trailing\n");
  EXPECT_EQ(c.num_gates(), 1);
}

TEST(Qasm, MultiQubitGates) {
  const Circuit c = qasm::parse(
      "qreg q[4]; ccx q[0],q[1],q[2]; cswap q[3],q[0],q[1];"
      "cp(0.25) q[2],q[3]; rzz(0.5) q[0],q[3];");
  ASSERT_EQ(c.num_gates(), 4);
  EXPECT_EQ(c.gate(0).num_controls(), 2);
  EXPECT_EQ(c.gate(1).num_controls(), 1);
}

TEST(Qasm, ErrorsCarryLineNumbers) {
  try {
    qasm::parse("qreg q[2];\nfrobnicate q[0];");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(Qasm, RejectsGateBeforeQreg) {
  EXPECT_THROW(qasm::parse("h q[0]; qreg q[2];"), Error);
}

TEST(Qasm, RejectsUnknownRegister) {
  EXPECT_THROW(qasm::parse("qreg q[2]; h r[0];"), Error);
}

TEST(Qasm, RejectsMalformedIntegerLiterals) {
  // Each offending literal sits on line 2.
  const std::vector<std::string> bad = {
      "OPENQASM 2.0;\nqreg q[99999999999];",  // register size past INT_MAX
      "OPENQASM 2.0;\nqreg q[x];",            // not a number
      "qreg q[2];\nh q[99999999999];",        // qubit index past INT_MAX
      "OPENQASM 2.0;\nqreg q[3x];",           // trailing non-digit
  };
  for (const std::string& src : bad) {
    try {
      qasm::parse(src);
      FAIL() << "expected a parse error for: " << src;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::invalid_argument) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // Blanks around the digits stay accepted.
  EXPECT_EQ(qasm::parse("qreg q[ 3 ]; h q[ 2 ];").num_qubits(), 3);
}

class QasmRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(QasmRoundTripTest, SemanticRoundTrip) {
  // Serialize a family circuit to QASM, parse it back, and check the
  // two circuits produce the same state (stronger than text equality).
  const Circuit original = circuits::make_family(GetParam(), 6);
  const Circuit reparsed = qasm::parse(qasm::to_qasm(original));
  EXPECT_EQ(reparsed.num_qubits(), original.num_qubits());
  EXPECT_EQ(reparsed.num_gates(), original.num_gates());
  const StateVector a = simulate_reference(original);
  const StateVector b = simulate_reference(reparsed);
  EXPECT_LT(a.max_abs_diff(b), 1e-10) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, QasmRoundTripTest,
                         ::testing::ValuesIn(circuits::family_names()));

// --- symbolic parameters (OpenQASM 3 input declarations) ----------------

constexpr const char* kParameterizedAnsatz = R"(
OPENQASM 3.0;
include "stdgates.inc";
input float theta;
input float gamma, beta;
qreg q[4];
h q[0];
h q[1];
h q[2];
h q[3];
rzz(gamma) q[0], q[1];
rzz(2*gamma) q[1], q[2];
rzz(gamma + pi/4) q[2], q[3];
rx(theta) q[0];
rx(-theta) q[1];
rx(theta/2) q[2];
crz(beta - 0.5) q[0], q[3];
)";

TEST(QasmSymbolic, ParsesInputDeclarationsIntoParams) {
  const Circuit c = qasm::parse(kParameterizedAnsatz);
  EXPECT_EQ(c.num_qubits(), 4);
  ASSERT_EQ(c.num_gates(), 11);
  EXPECT_TRUE(c.is_parameterized());
  EXPECT_EQ(c.symbols(),
            (std::vector<std::string>{"beta", "gamma", "theta"}));
  // rzz(2*gamma): coefficient survives parsing.
  EXPECT_EQ(c.gate(5).param(0), 2.0 * Param::symbol("gamma"));
  // rzz(gamma + pi/4): affine constant offset survives.
  EXPECT_NEAR(
      c.gate(6).param(0).evaluate(ParamBinding{{"gamma", 0.0}}),
      std::numbers::pi / 4, 1e-12);
  // rx(-theta) keeps its sign.
  EXPECT_EQ(c.gate(8).param(0), -Param::symbol("theta"));
}

TEST(QasmSymbolic, RoundTripsThroughExport) {
  const Circuit original = qasm::parse(kParameterizedAnsatz);
  const std::string exported = qasm::to_qasm(original);
  // Export declares every free symbol.
  EXPECT_NE(exported.find("input float beta;"), std::string::npos);
  EXPECT_NE(exported.find("input float gamma;"), std::string::npos);
  EXPECT_NE(exported.find("input float theta;"), std::string::npos);

  const Circuit reparsed = qasm::parse(exported);
  EXPECT_EQ(reparsed.symbols(), original.symbols());
  EXPECT_EQ(reparsed.fingerprint(), original.fingerprint());

  // Semantic check: bind both and compare the physics.
  const ParamBinding binding{{"theta", 0.9}, {"gamma", -0.3}, {"beta", 1.7}};
  const StateVector a = simulate_reference(original.bind(binding));
  const StateVector b = simulate_reference(reparsed.bind(binding));
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(QasmSymbolic, UndeclaredSymbolThrows) {
  try {
    qasm::parse("qreg q[1]; rx(theta) q[0];");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("theta"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("input float"), std::string::npos);
  }
}

TEST(QasmSymbolic, RejectsNonAffineExpressions) {
  EXPECT_THROW(
      qasm::parse("input float a; qreg q[1]; rx(a*a) q[0];"), Error);
  EXPECT_THROW(
      qasm::parse("input float a; qreg q[1]; rx(1/a) q[0];"), Error);
}

TEST(QasmSymbolic, RejectsBadDeclarations) {
  EXPECT_THROW(qasm::parse("input int k; qreg q[1]; h q[0];"), Error);
  EXPECT_THROW(
      qasm::parse("input float a; input float a; qreg q[1]; h q[0];"), Error);
  EXPECT_THROW(qasm::parse("input float pi; qreg q[1]; h q[0];"), Error);
}

TEST(QasmSymbolic, UnderscoreIdentifiersRoundTrip) {
  Circuit c(1);
  c.add(Gate::rx(0, Param::symbol("_t0")));
  const Circuit reparsed = qasm::parse(qasm::to_qasm(c));
  EXPECT_EQ(reparsed.symbols(), (std::vector<std::string>{"_t0"}));
}

TEST(QasmSymbolic, RefusesInternalSlotSymbols) {
  // "$k" slot names (from canonicalized plans) are not QASM
  // identifiers; exporting them must fail loudly, not emit garbage.
  Circuit c(1);
  c.add(Gate::rx(0, Param::symbol("$0")));
  EXPECT_THROW(qasm::to_qasm(c), Error);
}

TEST(QasmSymbolic, WidthSuffixAndAngleTypeAccepted) {
  const Circuit c = qasm::parse(
      "input float[64] t; input angle a; qreg q[1]; rx(t) q[0]; rz(a) q[0];");
  EXPECT_EQ(c.symbols(), (std::vector<std::string>{"a", "t"}));
}

TEST(Qasm, RandomCircuitRoundTrip) {
  const Circuit original = circuits::random_circuit(5, 60, 31337);
  const Circuit reparsed = qasm::parse(qasm::to_qasm(original));
  const StateVector a = simulate_reference(original);
  const StateVector b = simulate_reference(reparsed);
  EXPECT_LT(a.max_abs_diff(b), 1e-10);
}

// --------------------------------------------------------------------------
// Pragma-style noise attachment.

constexpr const char* kNoisyProgram = R"(
OPENQASM 2.0;
include "qelib1.inc";
#pragma atlas noise depolarizing(0.01) all
#pragma atlas noise amplitude_damping(0.05) gate cx
#pragma atlas noise bit_flip(0.02) qubit 1
#pragma atlas noise readout(0.01, 0.03) all
#pragma atlas noise readout(0.1, 0.2) qubit 0
qreg q[3];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
)";

TEST(QasmNoise, PragmasBuildTheNoiseModel) {
  const qasm::NoisyParse parsed = qasm::parse_with_noise(kNoisyProgram);
  EXPECT_EQ(parsed.circuit.num_gates(), 3);
  EXPECT_FALSE(parsed.noise.empty());
  EXPECT_FALSE(parsed.noise.all_pauli());  // amplitude damping attached
  EXPECT_TRUE(parsed.noise.has_readout_error());
  EXPECT_NEAR(parsed.noise.readout_for(0).p01, 0.1, 1e-15);
  EXPECT_NEAR(parsed.noise.readout_for(2).p01, 0.01, 1e-15);
  const auto sites = parsed.noise.sites_for(parsed.circuit);
  // depolarizing: every gate qubit (1 + 2 + 2); amplitude damping on
  // both cx (2 sites of 2 qubits... one per acted qubit: 2 + 2);
  // bit_flip on qubit 1 after cx(0,1) and cx(1,2).
  int depol = 0, damp = 0, flip = 0;
  for (const auto& s : sites) {
    if (s.channel->name() == "depolarizing") ++depol;
    if (s.channel->name() == "amplitude_damping") ++damp;
    if (s.channel->name() == "bit_flip") ++flip;
  }
  EXPECT_EQ(depol, 5);
  EXPECT_EQ(damp, 4);
  EXPECT_EQ(flip, 2);
}

TEST(QasmNoise, PlainParseIgnoresPragmas) {
  const Circuit c = qasm::parse(kNoisyProgram);
  EXPECT_EQ(c.num_gates(), 3);
  EXPECT_EQ(c.num_qubits(), 3);
}

TEST(Qasm, OptimizedCircuitsRoundTripUpToGlobalPhase) {
  // Level-2 optimization emits opaque Unitary gates (1q run products,
  // 2q folded diagonals); the exporter lowers them to u3 / p+p+cp,
  // exact up to a global phase QASM 2 cannot express. The round trip
  // must preserve the ray.
  for (const char* family : {"qsvm", "ising", "su2random"}) {
    const Circuit c = circuits::make_family(family, 5);
    opt::OptOptions o;
    o.level = 2;
    opt::PassContext ctx;
    ctx.num_local_qubits = 3;
    const Circuit oc = opt::PassManager(o).run(c, ctx);
    const bool has_unitary =
        std::any_of(oc.gates().begin(), oc.gates().end(), [](const Gate& g) {
          return g.kind() == GateKind::Unitary;
        });
    EXPECT_TRUE(has_unitary) << family;  // the test exercises the new path
    const Circuit round = qasm::parse(qasm::to_qasm(oc));
    const StateVector a = simulate_reference(c);
    StateVector b = simulate_reference(round);
    // Align b's global phase on a's largest amplitude, then compare.
    Index best = 0;
    double mag = 0;
    for (Index i = 0; i < a.size(); ++i)
      if (std::abs(a[i]) > mag) {
        mag = std::abs(a[i]);
        best = i;
      }
    ASSERT_GT(std::abs(b[best]), 1e-12) << family;
    const Amp phase =
        (a[best] / std::abs(a[best])) / (b[best] / std::abs(b[best]));
    double diff = 0;
    for (Index i = 0; i < a.size(); ++i)
      diff = std::max(diff, std::abs(a[i] - phase * b[i]));
    EXPECT_LT(diff, 1e-9) << family;
  }
  // Shapes the exporter cannot express still refuse loudly.
  Circuit bad(3);
  bad.add(Gate::unitary({0, 1}, Matrix::square(4, {1, 0, 0, 0,  //
                                                   0, 0, 1, 0,  //
                                                   0, 1, 0, 0,  //
                                                   0, 0, 0, 1})));
  EXPECT_THROW(qasm::to_qasm(bad), Error);  // non-diagonal 2q unitary
}

TEST(QasmNoise, MalformedPragmasThrowWithLineNumbers) {
  const auto expect_throw_containing = [](const std::string& src,
                                          const std::string& needle) {
    try {
      qasm::parse_with_noise(src);
      FAIL() << "expected throw for: " << src;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const std::string prelude = "qreg q[2];\nh q[0];\n";
  expect_throw_containing(
      prelude + "#pragma atlas noise warp_drive(0.1) all\n", "warp_drive");
  expect_throw_containing(
      prelude + "#pragma atlas noise depolarizing(0.1) nowhere\n", "nowhere");
  expect_throw_containing(
      prelude + "#pragma atlas noise depolarizing(1.7) all\n", "[0, 1]");
  expect_throw_containing(
      prelude + "#pragma atlas noise readout(0.1) all\n", "p01, p10");
  expect_throw_containing(prelude + "#pragma atlas teleport\n",
                          "unknown atlas pragma");
  expect_throw_containing(
      prelude + "#pragma atlas noise depolarizing(0.1) gate warp\n",
      "unknown gate name");
  expect_throw_containing(
      prelude + "#pragma atlas noise depolarizing(0.1) qubit 1e20\n",
      "non-negative integer");
}

}  // namespace
}  // namespace atlas
