// Device-executor tests: the explicit-transfer backend must be
// invisible to results — bit-identical to "inmemory" across randomized
// circuits, shapes, sweeps, and noisy trajectory batches (including
// derived seeds and measurement-sample streams) — while its buffer
// lifecycle stays airtight: zero leaked staging blocks after a session
// closes, constants uploaded once per stage per batch, and delta
// binding paying K + (N-1)*P kernel binds for an N-point batch instead
// of N*K. The CommandQueue is exercised directly for ordering,
// error propagation, and teardown under load (the TSan job runs this
// whole binary, so the stress tests double as race detectors).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/families.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "device/buffer.h"
#include "device/command_queue.h"
#include "exec/backend.h"
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
/// DRAM-offloading regime (shards outnumber modeled GPUs).
SessionConfig shaped(const std::string& executor, int local, int regional,
                     int global, int gpus = 0) {
  SessionConfig cfg;
  cfg.executor = executor;
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

TEST(DeviceRegistry, DeviceBackendRegistered) {
  EXPECT_TRUE(exec::executor_registry().contains("device"));
  const auto backend = exec::executor_registry().create("device");
  EXPECT_EQ(backend->name(), "device");
  EXPECT_TRUE(backend->batched_launches(shaped("device", 4, 1, 0).cluster));
}

// -------------------------------------------------------------------
// Bit-identity: "device" vs "inmemory" on randomized circuits/shapes.
// -------------------------------------------------------------------

class DeviceShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(DeviceShapeTest, RandomCircuitsBitIdenticalToInmemory) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919);
  const int local = 4 + static_cast<int>(rng.index(2));  // 4..5
  const int regional = static_cast<int>(rng.index(3));   // 0..2
  const int global = static_cast<int>(rng.index(2));     // 0..1
  const int n = local + regional + global;
  const Circuit c = circuits::random_circuit(n, 40, seed * 131);

  const Session dev(shaped("device", local, regional, global));
  const Session mem(shaped("inmemory", local, regional, global));
  const SimulationResult rd = dev.simulate(c);
  const SimulationResult rm = mem.simulate(c);

  EXPECT_EQ(rd.seed, rm.seed) << "derived seeds diverged at seed " << seed;
  const std::vector<Amp> ad = amplitudes(rd), am = amplitudes(rm);
  ASSERT_EQ(ad.size(), am.size());
  for (std::size_t i = 0; i < ad.size(); ++i)
    ASSERT_EQ(ad[i], am[i]) << "amp " << i << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceShapeTest, ::testing::Range(1, 9));

TEST(DeviceExecutor, SweepBitIdenticalToInmemoryIncludingSampleStreams) {
  const Circuit ansatz = make_ansatz(7, 2);
  const Session dev(shaped("device", 4, 2, 1));
  const Session mem(shaped("inmemory", 4, 2, 1));
  const CompiledCircuit cd = dev.compile(ansatz);
  const CompiledCircuit cm = mem.compile(ansatz);
  const std::vector<std::vector<double>> points = sweep_points(cd, 12);

  const std::vector<SimulationResult> rd = dev.sweep(cd, points);
  const std::vector<SimulationResult> rm = mem.sweep(cm, points);
  ASSERT_EQ(rd.size(), rm.size());
  for (std::size_t i = 0; i < rd.size(); ++i) {
    EXPECT_EQ(rd[i].seed, rm[i].seed) << "point " << i;
    EXPECT_EQ(amplitudes(rd[i]), amplitudes(rm[i])) << "point " << i;
    // Repeated draws advance each result's internal sample counter the
    // same way on both backends — the whole stream matches, not just
    // the first shot batch.
    EXPECT_EQ(rd[i].sample(8), rm[i].sample(8)) << "point " << i;
    EXPECT_EQ(rd[i].sample(8), rm[i].sample(8)) << "point " << i;
  }
}

TEST(DeviceExecutor, OffloadingShapeMatchesPlanWalkAndItsMetering) {
  // 4 shards/node on 1 modeled GPU: DRAM offloading. The device backend
  // must produce the same state as the in-place walk on the same shape
  // and meter the same modeled traffic, field for field.
  const Session dev(shaped("device", 4, 2, 1, /*gpus=*/1));
  const SimulationResult rd = dev.simulate(circuits::qft(7));
  exec::DistState state = exec::initial_state(*rd.plan, dev.cluster());
  ParamEnv env;
  env.slots = &rd.slot_values;
  const exec::ExecutionReport walked =
      exec::execute_plan(*rd.plan, dev.cluster(), state, env);

  EXPECT_EQ(amplitudes(rd), state.gather().amplitudes());
  EXPECT_GT(rd.report.totals.offload_bytes, 0u);
  expect_same_stats(rd.report.totals, walked.totals);
  ASSERT_EQ(rd.report.stages.size(), walked.stages.size());
  for (std::size_t s = 0; s < walked.stages.size(); ++s)
    expect_same_stats(rd.report.stages[s].stats, walked.stages[s].stats);
}

TEST(DeviceExecutor, BatchedSweepBitIdenticalToPerPointRuns) {
  const Circuit ansatz = make_ansatz(6, 2);
  const Session dev(shaped("device", 4, 2, 0, /*gpus=*/2));
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

  const noise::NoisyResult rd =
      Session(shaped("device", 3, 1, 1)).run_noisy(c, model, opts);
  const noise::NoisyResult rm =
      Session(shaped("inmemory", 3, 1, 1)).run_noisy(c, model, opts);

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
// Buffer lifecycle and bind accounting.
// -------------------------------------------------------------------

TEST(DeviceBuffers, NoLeakedBuffersAfterSessionClose) {
  const device::BufferStats before = device::buffer_stats();
  {
    const Session dev(shaped("device", 4, 2, 0, /*gpus=*/2));
    const CompiledCircuit compiled = dev.compile(make_ansatz(6, 2));
    const std::vector<SimulationResult> results =
        dev.sweep(compiled, sweep_points(compiled, 8));
    ASSERT_EQ(results.size(), 8u);
  }
  const device::BufferStats after = device::buffer_stats();
  EXPECT_EQ(after.live_buffers, before.live_buffers);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  // Every block the session's arenas carved was returned to the OS.
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks);
  EXPECT_GT(after.uploads, before.uploads);
  EXPECT_GT(after.downloads, before.downloads);
}

TEST(DeviceBuffers, ConstantsUploadOncePerStagePerBatch) {
  const Session dev(shaped("device", 4, 2, 0, /*gpus=*/2));
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

TEST(DeviceBuffers, DeltaBindPaysConstantsOncePerBatch) {
  const Session dev(shaped("device", 4, 2, 0, /*gpus=*/2));
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
// Capacity errors and auto-selection.
// -------------------------------------------------------------------

TEST(DeviceCapacity, TypedCapacityErrorWhenStagingArenaExceedsCap) {
  SessionConfig cfg = shaped("device", 5, 2, 0, /*gpus=*/2);
  cfg.cluster.max_staging_bytes = 64;  // far below 2 slots/GPU
  try {
    const Session session(cfg);
    FAIL() << "expected capacity error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::capacity) << e.what();
  }
  EXPECT_GT(exec::device_staging_bytes(cfg.cluster), 64u);
}

TEST(DeviceCapacity, AutoReportsTypedCapacityErrorWhenNoBackendFits) {
  // Offloading shape rules out "inmemory"; the staging cap rules out
  // "device" — "auto" must surface a typed capacity error naming both.
  SessionConfig cfg = shaped("auto", 5, 2, 0, /*gpus=*/1);
  cfg.cluster.max_staging_bytes = 64;
  try {
    const Session session(cfg);
    FAIL() << "expected capacity error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::capacity) << e.what();
    EXPECT_NE(std::string(e.what()).find("device"), std::string::npos);
  }
}

TEST(DeviceCapacity, AutoPrefersDeviceOnOffloadingShapes) {
  obs::Counter& launches = obs::counter(obs::names::kDeviceLaunches);
  const Circuit c = circuits::ghz(6);

  // "auto" is resolved once, at construction, to a concrete backend.
  const std::uint64_t before_mem = launches.value();
  const Session fits(shaped("auto", 4, 1, 1));  // 2 GPUs, 2 shards/node
  EXPECT_EQ(fits.executor().name(), "inmemory");
  fits.simulate(c);
  EXPECT_EQ(launches.value(), before_mem)
      << "auto must keep using inmemory when every shard has a GPU";

  const std::uint64_t before_dev = launches.value();
  const Session offloads(shaped("auto", 4, 1, 1, /*gpus=*/1));
  EXPECT_EQ(offloads.executor().name(), "device");
  offloads.simulate(c);
  EXPECT_GT(launches.value(), before_dev)
      << "auto must route offloading shapes through the device backend";
}

// -------------------------------------------------------------------
// CommandQueue: ordering, error propagation, teardown under load.
// -------------------------------------------------------------------

TEST(CommandQueue, PipelinedRoundsProduceOrderedResults) {
  ThreadPool pool(3);
  device::StagingPool staging;
  constexpr std::size_t kAmps = 64;
  constexpr int kRounds = 10;
  const std::size_t bytes = kAmps * sizeof(Amp);
  // One exec token, two slots — the double-buffered steady state.
  device::CommandQueue queue(pool, 1, 2);
  std::vector<device::DeviceBuffer> slots = {staging.allocate(bytes),
                                             staging.allocate(bytes)};
  std::vector<std::vector<Amp>> host(kRounds, std::vector<Amp>(kAmps));
  for (int r = 0; r < kRounds; ++r)
    for (std::size_t i = 0; i < kAmps; ++i)
      host[r][i] = Amp(static_cast<double>(r), static_cast<double>(i));

  for (int r = 0; r < kRounds; ++r) {
    const int slot = r & 1;
    device::DeviceBuffer buf = slots[static_cast<std::size_t>(slot)];
    queue.enqueue_h2d(buf, host[r].data(), bytes, slot);
    queue.enqueue_launch(
        [buf]() {
          for (std::size_t i = 0; i < kAmps; ++i) buf.data()[i] *= 2.0;
        },
        /*exec_token=*/0, slot);
    queue.enqueue_d2h(buf, host[r].data(), bytes, slot);
  }
  queue.sync();
  for (int r = 0; r < kRounds; ++r)
    for (std::size_t i = 0; i < kAmps; ++i)
      ASSERT_EQ(host[r][i],
                Amp(2.0 * r, 2.0 * static_cast<double>(i)))
          << "round " << r << " amp " << i;
}

TEST(CommandQueue, SyncRethrowsFirstLaunchError) {
  ThreadPool pool(2);
  device::StagingPool staging;
  device::CommandQueue queue(pool, 1, 1);
  device::DeviceBuffer buf = staging.allocate(sizeof(Amp));
  queue.enqueue_launch(
      []() { throw Error("injected launch failure", ErrorCode::internal); },
      0, 0);
  queue.enqueue_launch([]() {}, 0, 0);  // queue keeps draining after
  try {
    queue.sync();
    FAIL() << "expected the launch error to surface from sync()";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  queue.sync();  // error is consumed; the queue stays usable
}

TEST(CommandQueue, TeardownUnderLoadLeaksNothing) {
  const device::BufferStats before = device::buffer_stats();
  {
    ThreadPool pool(4);
    for (int iter = 0; iter < 20; ++iter) {
      device::StagingPool staging;
      constexpr std::size_t kAmps = 256;
      const std::size_t bytes = kAmps * sizeof(Amp);
      std::vector<Amp> host(kAmps, Amp(1.0, -1.0));
      device::CommandQueue queue(pool, 2, 4);
      for (int r = 0; r < 32; ++r) {
        const int slot = r & 3;
        device::DeviceBuffer buf = staging.allocate(bytes);
        queue.enqueue_h2d(buf, host.data(), bytes, slot);
        queue.enqueue_launch(
            [buf]() {
              for (std::size_t i = 0; i < kAmps; ++i) buf.data()[i] += 1.0;
            },
            r & 1, slot);
        if (r % 4 == 0) queue.enqueue_barrier();
        queue.enqueue_d2h(buf, host.data(), bytes, slot);
      }
      // No sync: the destructor must drain in-flight launches, release
      // every captured handle, and join — under TSan this is the
      // teardown-under-load race check.
    }
  }
  const device::BufferStats after = device::buffer_stats();
  EXPECT_EQ(after.live_buffers, before.live_buffers);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks);
}

TEST(CommandQueue, DestructorReturnsAfterLaunchCapturesAreReleased) {
  // The launch's capture sleeps in its destructor before raising the
  // flag, so a queue that reports the launch finished while its
  // closure is still alive returns from ~CommandQueue with the flag
  // down.
  struct SlowRelease {
    explicit SlowRelease(std::atomic<bool>* flag) : released(flag) {}
    std::atomic<bool>* released;
    ~SlowRelease() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      released->store(true);
    }
  };
  ThreadPool pool(2);
  std::atomic<bool> released{false};
  {
    device::CommandQueue queue(pool, 1, 1);
    auto capture = std::make_shared<SlowRelease>(&released);
    queue.enqueue_launch(
        [capture = std::move(capture)] {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        },
        0, 0);
  }
  EXPECT_TRUE(released.load());
}

}  // namespace
}  // namespace atlas
