// Device-runner tests: the explicit-transfer shard runner must be
// invisible to results — bit-identical to the in-place runner across
// randomized circuits, shapes and multi-point batches, and an
// offloading session (which the shape routes through the device
// runner) bit-identical to in-place walks of its plan and to a
// non-offloading session in sweeps and noisy trajectory batches —
// while its staging traffic stays exact: every shard crosses each way
// once per stage per point, constants upload once per stage per batch,
// and delta binding pays K + (N-1)*P kernel binds for an N-point batch
// instead of N*K.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuits/families.h"
#include "core/session.h"
#include "device/buffer.h"
#include "exec/device_executor.h"
#include "exec/executor.h"
#include "exec/stage_program.h"
#include "noise/channel.h"
#include "noise/model.h"
#include "noise/result.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace atlas {
namespace {

Circuit make_ansatz(int n, int layers) {
  Circuit c(n, "device_ansatz");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (int l = 0; l < layers; ++l) {
    const Param gamma = Param::symbol("gamma" + std::to_string(l));
    const Param theta = Param::symbol("theta" + std::to_string(l));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::rzz(q, (q + 1) % n, gamma));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::rx(q, theta));
  }
  return c;
}

/// Constant layers across every qubit, rotations confined to qubit 0:
/// kernelization groups gates by qubit set, so the kernels that never
/// see qubit 0 are parameter-independent — the shape that makes the
/// bind-many delta measurable (P < K).
Circuit make_mixed_circuit(int n) {
  Circuit c(n, "device_mixed");
  for (int layer = 0; layer < 3; ++layer) {
    for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
    for (Qubit q = 0; q + 1 < n; ++q) c.add(Gate::cx(q, q + 1));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::t(q));
  }
  const Param theta = Param::symbol("theta");
  c.add(Gate::rx(0, theta));
  c.add(Gate::rz(0, theta));
  return c;
}

std::vector<Amp> amplitudes(const SimulationResult& r) {
  return r.state.gather().amplitudes();
}

/// `gpus` defaults to the non-offloading 2^R; pass fewer to force the
/// DRAM-offloading regime (shards outnumber modeled GPUs), which the
/// session's executor runs on the device runner.
SessionConfig shaped(int local, int regional, int global, int gpus = 0) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = gpus > 0 ? gpus : (1 << regional);
  cfg.cluster.num_threads = 2;
  return cfg;
}

void expect_same_stats(const device::CommStats& a, const device::CommStats& b) {
  EXPECT_EQ(a.intra_gpu_bytes, b.intra_gpu_bytes);
  EXPECT_EQ(a.intra_node_bytes, b.intra_node_bytes);
  EXPECT_EQ(a.inter_node_bytes, b.inter_node_bytes);
  EXPECT_EQ(a.offload_bytes, b.offload_bytes);
  EXPECT_EQ(a.kernel_bytes, b.kernel_bytes);
  EXPECT_EQ(a.alltoall_rounds, b.alltoall_rounds);
}

std::vector<std::vector<double>> sweep_points(const CompiledCircuit& compiled,
                                              int count,
                                              std::uint64_t seed = 17) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(static_cast<std::size_t>(count));
  for (auto& p : points) {
    p.resize(compiled.symbols().size());
    for (double& v : p) v = rng.uniform() * 6.28318 - 3.14159;
  }
  return points;
}

/// The in-place walk of `plan` for one point, the reference every
/// device-runner result must match bit for bit.
exec::ExecutionReport walk_in_place(const exec::ExecutionPlan& plan,
                                    const device::Cluster& cluster,
                                    exec::DistState& state,
                                    const SlotValues& values) {
  exec::InPlaceRunner runner(cluster);
  exec::BatchPoint point{&state, {}};
  point.env.slots = &values;
  return std::move(
      exec::execute_plan(plan, cluster, {point}, runner).front());
}

// -------------------------------------------------------------------
// Bit-identity: DeviceRunner vs InPlaceRunner on randomized
// circuits, shapes and batches.
// -------------------------------------------------------------------

class DeviceShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(DeviceShapeTest, RandomCircuitsBitIdenticalToInPlace) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919);
  const int local = 4 + static_cast<int>(rng.index(2));  // 4..5
  const int regional = static_cast<int>(rng.index(3));   // 0..2
  const int global = static_cast<int>(rng.index(2));     // 0..1
  // 1..2^R GPUs per node: offloading and non-offloading shapes alike.
  const int gpus = 1 + static_cast<int>(rng.index(std::size_t{1} << regional));
  const int n = local + regional + global;
  Circuit c = circuits::random_circuit(n, 40, seed * 131);
  c.add(Gate::rx(0, Param::symbol("theta")));
  c.add(Gate::rz(n - 1, Param::symbol("gamma")));

  const Session session(shaped(local, regional, global, gpus));
  const device::Cluster& cluster = session.cluster();
  const CompiledCircuit compiled = session.compile(c);
  const exec::ExecutionPlan& plan = *compiled.plan();
  // Several points per batch, so later points delta-bind against the
  // first point's program on both runners.
  std::vector<SlotValues> values;
  for (const std::vector<double>& p : sweep_points(compiled, 3, seed))
    values.push_back(compiled.slot_values_from(p));

  const auto walk_batch = [&](exec::ShardRunner& runner) {
    std::vector<exec::DistState> states;
    for (std::size_t i = 0; i < values.size(); ++i)
      states.push_back(exec::initial_state(plan, cluster));
    std::vector<exec::BatchPoint> points(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      points[i].state = &states[i];
      points[i].env.slots = &values[i];
    }
    const std::vector<exec::ExecutionReport> reports =
        exec::execute_plan(plan, cluster, points, runner);
    EXPECT_EQ(reports.size(), values.size());
    return states;
  };
  exec::DeviceRunner device_runner(cluster);
  exec::InPlaceRunner in_place_runner(cluster);
  const std::vector<exec::DistState> dev = walk_batch(device_runner);
  const std::vector<exec::DistState> mem = walk_batch(in_place_runner);

  for (std::size_t p = 0; p < values.size(); ++p) {
    exec::DistState solo = exec::initial_state(plan, cluster);
    walk_in_place(plan, cluster, solo, values[p]);
    const std::vector<Amp> ad = dev[p].gather().amplitudes();
    const std::vector<Amp> am = mem[p].gather().amplitudes();
    const std::vector<Amp> as = solo.gather().amplitudes();
    ASSERT_EQ(ad.size(), am.size());
    for (std::size_t i = 0; i < ad.size(); ++i) {
      ASSERT_EQ(ad[i], am[i]) << "amp " << i << " point " << p << " seed "
                              << seed;
      ASSERT_EQ(ad[i], as[i]) << "amp " << i << " point " << p << " seed "
                              << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceShapeTest, ::testing::Range(1, 9));

TEST(DeviceExecutor, SweepBitIdenticalToInPlaceWalksOfItsPlan) {
  // 8 shards through 2 modeled GPUs: the sweep is one batched device
  // launch; each point must equal the in-place walk of the same plan.
  const Session dev(shaped(4, 2, 1, /*gpus=*/2));
  ASSERT_TRUE(dev.cluster().config().offloading());
  const CompiledCircuit compiled = dev.compile(make_ansatz(7, 2));
  const std::vector<std::vector<double>> points = sweep_points(compiled, 12);

  const std::vector<SimulationResult> rd = dev.sweep(compiled, points);
  ASSERT_EQ(rd.size(), points.size());
  for (std::size_t i = 0; i < rd.size(); ++i) {
    exec::DistState state = exec::initial_state(*rd[i].plan, dev.cluster());
    walk_in_place(*rd[i].plan, dev.cluster(), state, rd[i].slot_values);
    EXPECT_EQ(amplitudes(rd[i]), state.gather().amplitudes())
        << "point " << i;
  }
}

TEST(DeviceExecutor, OffloadingShapeMatchesPlanWalkAndItsMetering) {
  // 4 shards/node on 1 modeled GPU: DRAM offloading. The device runner
  // must produce the same state as the in-place walk on the same shape
  // and meter the same modeled traffic, field for field.
  const Session dev(shaped(4, 2, 1, /*gpus=*/1));
  obs::Counter& launches = obs::counter(obs::names::kDeviceLaunches);
  const std::uint64_t launches0 = launches.value();
  const SimulationResult rd = dev.simulate(circuits::qft(7));
  EXPECT_GT(launches.value(), launches0)
      << "an offloading shape must run on the device runner";
  exec::DistState state = exec::initial_state(*rd.plan, dev.cluster());
  const exec::ExecutionReport walked =
      walk_in_place(*rd.plan, dev.cluster(), state, rd.slot_values);

  EXPECT_EQ(amplitudes(rd), state.gather().amplitudes());
  EXPECT_GT(rd.report.totals.offload_bytes, 0u);
  expect_same_stats(rd.report.totals, walked.totals);
  ASSERT_EQ(rd.report.stages.size(), walked.stages.size());
  for (std::size_t s = 0; s < walked.stages.size(); ++s)
    expect_same_stats(rd.report.stages[s].stats, walked.stages[s].stats);
}

TEST(DeviceExecutor, BatchedSweepBitIdenticalToPerPointRuns) {
  const Circuit ansatz = make_ansatz(6, 2);
  const Session dev(shaped(4, 2, 0, /*gpus=*/2));
  const CompiledCircuit compiled = dev.compile(ansatz);
  const std::vector<std::vector<double>> points = sweep_points(compiled, 9);

  const std::vector<SimulationResult> batched = dev.sweep(compiled, points);
  ASSERT_EQ(batched.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SimulationResult solo = dev.run(compiled, points[i]);
    EXPECT_EQ(batched[i].seed, solo.seed) << "point " << i;
    EXPECT_EQ(amplitudes(batched[i]), amplitudes(solo)) << "point " << i;
  }
}

TEST(DeviceExecutor, RunNoisyBitIdenticalToInmemory) {
  const Circuit c = make_ansatz(5, 1).bind(
      {{"gamma0", 0.37}, {"theta0", 1.21}});
  noise::NoiseModel model;
  model.after_all_gates(noise::KrausChannel::depolarizing(0.06));
  model.readout_error_all(0.02, 0.03);
  noise::NoisyRunOptions opts;
  opts.trajectories = 70;  // > 2 chunks through the batched path
  opts.shots = 12;
  opts.accumulate_probabilities = true;

  // Same L/R/G; 1 GPU per node offloads (device runner), 2 do not
  // (in place). Trajectory streams do not depend on the plan key, so
  // counts, probabilities and <Z> must match bit for bit.
  const noise::NoisyResult rd =
      Session(shaped(3, 1, 1, /*gpus=*/1)).run_noisy(c, model, opts);
  const noise::NoisyResult rm =
      Session(shaped(3, 1, 1)).run_noisy(c, model, opts);

  ASSERT_TRUE(rd.pauli_fast_path());
  EXPECT_EQ(rd.counts(), rm.counts());
  EXPECT_EQ(rd.probabilities(), rm.probabilities());
  for (Qubit q = 0; q < c.num_qubits(); ++q) {
    EXPECT_EQ(rd.expectation_z(q).value, rm.expectation_z(q).value) << q;
    EXPECT_EQ(rd.expectation_z(q).std_error, rm.expectation_z(q).std_error)
        << q;
  }
}

// -------------------------------------------------------------------
// Staging traffic and bind accounting.
// -------------------------------------------------------------------

TEST(DeviceStaging, SweepStagesEveryShardExactlyOncePerStagePerPoint) {
  // An N-point sweep over K stages and S shards stages each shard
  // through a slot once per stage per point: exactly N*K*S*shard_bytes
  // each way, on the obs counters and through buffer_stats(), and
  // exactly N*K*S launches.
  const Session dev(shaped(4, 2, 0, /*gpus=*/2));
  const CompiledCircuit compiled = dev.compile(make_ansatz(6, 2));
  const std::vector<std::vector<double>> points = sweep_points(compiled, 8);
  obs::Counter& up = obs::counter(obs::names::kDeviceUploadBytes);
  obs::Counter& down = obs::counter(obs::names::kDeviceDownloadBytes);
  obs::Counter& launches = obs::counter(obs::names::kDeviceLaunches);
  const device::BufferStats before = device::buffer_stats();
  const std::uint64_t up0 = up.value(), down0 = down.value();
  const std::uint64_t launches0 = launches.value();
  ASSERT_EQ(dev.sweep(compiled, points).size(), points.size());

  const device::ClusterConfig& cfg = dev.cluster().config();
  const std::uint64_t stages = compiled.plan()->stages.size();
  const std::uint64_t shards = cfg.num_shards();
  const std::uint64_t shard_bytes = sizeof(Amp) << cfg.local_qubits;
  const std::uint64_t staged = points.size() * stages * shards;
  const std::uint64_t expected = staged * shard_bytes;
  ASSERT_GT(stages, 0u);
  EXPECT_EQ(shards, 4u);
  EXPECT_EQ(launches.value() - launches0, staged);
  EXPECT_EQ(up.value() - up0, expected);
  EXPECT_EQ(down.value() - down0, expected);
  const device::BufferStats after = device::buffer_stats();
  EXPECT_EQ(after.upload_bytes - before.upload_bytes, expected);
  EXPECT_EQ(after.download_bytes - before.download_bytes, expected);
}

TEST(DeviceStaging, ConstantsUploadOncePerStagePerBatch) {
  const Session dev(shaped(4, 2, 0, /*gpus=*/2));
  const CompiledCircuit compiled = dev.compile(make_ansatz(6, 2));
  const std::vector<std::vector<double>> points = sweep_points(compiled, 32);
  dev.sweep(compiled, points);  // warm the plan + skeleton caches

  obs::Counter& const_uploads =
      obs::counter(obs::names::kDeviceConstUploads);
  obs::Counter& batches = obs::counter(obs::names::kDeviceBatches);
  const std::uint64_t uploads0 = const_uploads.value();
  const std::uint64_t batches0 = batches.value();
  dev.sweep(compiled, points);
  // One constant bind per stage for the whole 32-point batch — not one
  // per point.
  const std::uint64_t stages = compiled.plan()->stages.size();
  EXPECT_EQ(batches.value() - batches0, 1u);
  EXPECT_EQ(const_uploads.value() - uploads0, stages);
}

TEST(DeviceStaging, DeltaBindPaysConstantsOncePerBatch) {
  const Session dev(shaped(4, 2, 0, /*gpus=*/2));
  const CompiledCircuit compiled = dev.compile(make_mixed_circuit(6));
  const std::vector<std::vector<double>> p1 = sweep_points(compiled, 1);
  dev.run(compiled, p1[0]);  // warm skeleton cache

  // Batch of N pays K + (N-1)*P kernel binds: K full binds for the
  // first point of each stage, then only the P parameter-dependent
  // kernels per additional point. Probe K, then solve for P from two
  // batch sizes and check the affine structure holds exactly.
  const std::uint64_t b0 = exec::stage_kernel_binds();
  dev.run(compiled, p1[0]);
  const std::uint64_t k = exec::stage_kernel_binds() - b0;  // K + 0*P
  const std::uint64_t b1 = exec::stage_kernel_binds();
  dev.sweep(compiled, sweep_points(compiled, 8));
  const std::uint64_t binds8 = exec::stage_kernel_binds() - b1;  // K + 7P
  const std::uint64_t b2 = exec::stage_kernel_binds();
  dev.sweep(compiled, sweep_points(compiled, 16));
  const std::uint64_t binds16 = exec::stage_kernel_binds() - b2;  // K + 15P

  ASSERT_GT(k, 0u);
  ASSERT_GE(binds8, k);
  const std::uint64_t p8 = binds8 - k;          // 7P
  const std::uint64_t p16 = binds16 - k;        // 15P
  EXPECT_EQ(p8 % 7, 0u);
  EXPECT_EQ(p16 % 15, 0u);
  EXPECT_EQ(p8 / 7, p16 / 15);                  // same P both ways
  EXPECT_LE(p8 / 7, k);                         // P <= K by definition
  // The whole point: far fewer binds than naive N*K rebinding.
  EXPECT_LT(binds16, 16 * k);
}

// -------------------------------------------------------------------
// Runner selection.
// -------------------------------------------------------------------

TEST(DeviceExecutor, ShapePicksTheRunner) {
  obs::Counter& launches = obs::counter(obs::names::kDeviceLaunches);
  const Circuit c = circuits::ghz(6);

  const std::uint64_t before_mem = launches.value();
  const Session fits(shaped(4, 1, 1));  // 2 GPUs, 2 shards/node
  EXPECT_FALSE(fits.executor().batched_launches(fits.cluster().config()));
  fits.simulate(c);
  EXPECT_EQ(launches.value(), before_mem)
      << "a shape with one GPU per shard must run in place";

  const std::uint64_t before_dev = launches.value();
  const Session offloads(shaped(4, 1, 1, /*gpus=*/1));
  EXPECT_TRUE(
      offloads.executor().batched_launches(offloads.cluster().config()));
  offloads.simulate(c);
  EXPECT_GT(launches.value(), before_dev)
      << "an offloading shape must run on the device runner";
}

}  // namespace
}  // namespace atlas
