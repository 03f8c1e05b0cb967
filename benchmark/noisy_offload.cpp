// noisy_offload: qsvm(15) with depolarizing(1e-3) after every gate on 4
// DRAM shards swapped through 1 modeled GPU (L=13, R=2, G=0), so "auto"
// picks the device executor. The loop calls Session::run_noisy with 64
// trajectories. It is the only workload that runs the device executor
// (staged transfers, the command queue, the batched delta bind) and
// the noise engine: the other side of auto's executor choice.

#include <cmath>
#include <memory>
#include <unordered_map>

#include "circuits/families.h"
#include "common/rng.h"
#include "device/buffer.h"
#include "exec/queries.h"
#include "noise/density_ref.h"
#include "noise/trajectory.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "walk.h"

namespace bench {
namespace {

constexpr int kQubits = 15;
constexpr int kCheckQubits = 8;
constexpr int kTrajectories = 64;
/// The engine ships Pauli trajectories to batched executors in chunks
/// of this many points (noise/engine.cpp); the traced walk mirrors it.
constexpr std::size_t kChunk = 32;

atlas::SessionConfig config(int qubits, int threads) {
  atlas::SessionConfig cfg;
  cfg.cluster.local_qubits = qubits - 2;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 0;
  cfg.cluster.gpus_per_node = 1;
  cfg.cluster.num_threads = threads;
  cfg.dispatch_threads = threads;
  return cfg;
}

atlas::noise::NoiseModel noise_model() {
  atlas::noise::NoiseModel m;
  m.after_all_gates(atlas::noise::KrausChannel::depolarizing(1e-3));
  return m;
}

/// Trajectory seed of call `call` (nonzero: 0 means the session seed).
std::uint64_t call_seed(std::uint64_t seed, std::uint64_t call) {
  return atlas::rng_stream_seed(seed, 1000 + call) | 1;
}

bool same_result(const atlas::noise::NoisyResult& a,
                 const atlas::noise::NoisyResult& b) {
  if (a.num_qubits() != b.num_qubits() ||
      a.trajectories() != b.trajectories() || a.weights() != b.weights())
    return false;
  for (int q = 0; q < a.num_qubits(); ++q) {
    const atlas::noise::Estimate x = a.expectation_z(q), y = b.expectation_z(q);
    if (x.value != y.value || x.std_error != y.std_error) return false;
  }
  return true;
}

atlas::noise::NoisyRunOptions options(std::uint64_t seed, int trajectories) {
  atlas::noise::NoisyRunOptions o;
  o.trajectories = trajectories;
  o.seed = seed;
  return o;
}

/// Device-side counters read around untraced calls.
struct DeviceCounters {
  double h2d = 0, d2h = 0, launches = 0, const_uploads = 0, batches = 0;

  static DeviceCounters read() {
    namespace names = atlas::obs::names;
    const atlas::device::BufferStats b = atlas::device::buffer_stats();
    DeviceCounters c;
    c.h2d = static_cast<double>(b.upload_bytes);
    c.d2h = static_cast<double>(b.download_bytes);
    c.launches = static_cast<double>(
        atlas::obs::counter(names::kDeviceLaunches).value());
    c.const_uploads = static_cast<double>(
        atlas::obs::counter(names::kDeviceConstUploads).value());
    c.batches = static_cast<double>(
        atlas::obs::counter(names::kDeviceBatches).value());
    return c;
  }
  void add_delta(const DeviceCounters& a, const DeviceCounters& b) {
    h2d += b.h2d - a.h2d;
    d2h += b.d2h - a.d2h;
    launches += b.launches - a.launches;
    const_uploads += b.const_uploads - a.const_uploads;
    batches += b.batches - a.batches;
  }
};

void checks(const Options& opt, Report& r, const atlas::Session& session,
            const atlas::Circuit& circuit,
            const atlas::noise::NoiseModel& model) {
  const auto o = options(call_seed(opt.seed, 0), kTrajectories);
  r.check(same_result(session.run_noisy(circuit, model, o),
                      session.run_noisy(circuit, model, o)),
          "run_noisy differs across same-seed calls");

  // The statistical oracle runs the same engine path under ten times
  // the noise: at 1e-3 most trajectories draw no error at all, and the
  // standard error estimated from the few that do is too rough for a
  // 5-sigma test to be reliable.
  atlas::noise::NoiseModel strong;
  strong.after_all_gates(atlas::noise::KrausChannel::depolarizing(1e-2));
  atlas::Session small(config(kCheckQubits, opt.threads));
  const atlas::Circuit c =
      atlas::circuits::qsvm(kCheckQubits, atlas::rng_stream_seed(opt.seed, 7));
  const atlas::noise::NoisyResult est =
      small.run_noisy(c, strong, options(call_seed(opt.seed, 1), 2048));
  const atlas::noise::DensityMatrix rho =
      atlas::noise::simulate_density(c, strong);
  for (int q = 0; q < kCheckQubits; ++q) {
    const atlas::noise::Estimate e = est.expectation_z(q);
    const double exact = rho.expectation_z(q);
    r.check(std::abs(e.value - exact) <= 5 * e.std_error + 1e-9,
            "<Z_" + std::to_string(q) + "> " + std::to_string(e.value) +
                " is not within 5 sigma of the density reference " +
                std::to_string(exact));
  }
}

}  // namespace

void noisy_offload(const Options& opt, Report& r, Recorder& rec) {
  std::unique_ptr<atlas::Session> session;
  atlas::Circuit circuit;
  const atlas::noise::NoiseModel model = noise_model();
  Pace pace;
  const std::vector<double> setups = time_setups(
      pace,
      [&] {
        session.reset();
        circuit = atlas::Circuit();
      },
      [&] {
        session = std::make_unique<atlas::Session>(config(kQubits, opt.threads));
        circuit =
            atlas::circuits::qsvm(kQubits, atlas::rng_stream_seed(opt.seed, 5));
        (void)session->run_noisy(circuit, model,
                                 options(call_seed(opt.seed, 0), kTrajectories));
      });
  r.check(session->executor().batched_launches(session->cluster().config()),
          "auto did not pick a batched (device) executor");

  if (!opt.trace) {
    checks(opt, r, *session, circuit, model);
    std::vector<double> calls;
    const double t0 = now_s();
    for (std::uint64_t call = 2; now_s() - t0 < opt.seconds; ++call) {
      pace.sample();
      const double c0 = now_s();
      const atlas::noise::NoisyResult res = session->run_noisy(
          circuit, model, options(call_seed(opt.seed, call), kTrajectories));
      calls.push_back(now_s() - c0);
      r.check(res.trajectories() == kTrajectories &&
                  std::abs(res.mean_weight() - 1) < 1e-9,
              "run_noisy trajectory count or weight");
    }
    note_sample(r, "run_noisy", calls);
    end_to_end(r, pace, setups, kTrajectories, median(calls));
    return;
  }

  // Traced: per call one run_noisy off the record, then the same call
  // decomposed — trajectory program, sampled angles, batched execution
  // per 32-point chunk, reduction — which must give a bit-identical
  // NoisyResult; plus one trajectory walked layer by layer.
  Layers layers;
  for (int i = 0; i < 3; ++i) {
    session->clear_plan_cache();
    const atlas::noise::TrajectoryProgram prog =
        atlas::noise::TrajectoryProgram::build(circuit, model);
    Recorder::Scope s(rec, "core.compile", 0);
    layers.add_compile(session->compile(prog.twirled()));
  }
  double traced_s = 0, build_s = 0, sample_s = 0, batch_s = 0;
  double trajectories = 0, calls = 0, kernels = 0;
  std::vector<double> untraced;
  Counters counters;
  DeviceCounters device;
  const double t0 = now_s();
  for (std::uint64_t call = 2; now_s() - t0 < opt.seconds; ++call) {
    const std::uint64_t seed = call_seed(opt.seed, call);
    const Counters c0 = Counters::read(*session);
    const DeviceCounters d0 = DeviceCounters::read();
    const double u0 = now_s();
    const atlas::noise::NoisyResult expected =
        session->run_noisy(circuit, model, options(seed, kTrajectories));
    untraced.push_back(now_s() - u0);
    counters.add_delta(c0, Counters::read(*session));
    device.add_delta(d0, DeviceCounters::read());

    Recorder::Scope call_span(rec, "noisy.call", call);
    Recorder::Scope build_span(rec, "noise.build", call);
    const atlas::noise::TrajectoryProgram prog =
        atlas::noise::TrajectoryProgram::build(circuit, model);
    build_s += build_span.end();
    atlas::CompiledCircuit compiled;
    {
      Recorder::Scope s(rec, "core.compile", call);
      compiled = session->compile(prog.twirled());
    }
    std::unordered_map<std::string, std::size_t> flat;
    for (std::size_t j = 0; j < prog.noise_symbols().size(); ++j)
      flat[prog.noise_symbols()[j]] = j;
    std::vector<int> positions(prog.noise_symbols().size(), -1);
    for (std::size_t i = 0; i < compiled.symbols().size(); ++i)
      positions[flat.at(compiled.symbols()[i])] = static_cast<int>(i);
    const std::vector<double> base(compiled.symbols().size(), 0.0);

    // Sampling and reduction fan out like the engine's dispatch pool;
    // the cluster pool has the same width.
    atlas::ThreadPool& pool = session->cluster().pool();
    atlas::noise::NoisyResultBuilder builder(kQubits, true, 0, false);
    std::vector<double> first_values;
    for (std::size_t begin = 0; begin < kTrajectories; begin += kChunk) {
      const std::size_t n = std::min<std::size_t>(kChunk, kTrajectories - begin);
      std::vector<std::vector<double>> values(n, base);
      std::vector<atlas::SlotValues> slots(n);
      {
        Recorder::Scope s(rec, "noise.sample", call);
        pool.parallel_for(n, [&](std::size_t j) {
          prog.sample_pauli_angles(seed, begin + j, positions, values[j]);
          slots[j] = compiled.slot_values_from(values[j]);
        });
        sample_s += s.end();
      }
      if (begin == 0) first_values = values[0];
      std::vector<atlas::exec::DistState> states(n);
      std::vector<atlas::exec::BatchPoint> points(n);
      {
        Recorder::Scope s(rec, "noise.init_states", call);
        for (std::size_t j = 0; j < n; ++j) {
          states[j] = session->executor().initial_state(*compiled.plan(),
                                                        session->cluster());
          points[j].state = &states[j];
          points[j].env.slots = &slots[j];
        }
      }
      {
        Recorder::Scope s(rec, "device.execute_batch", call);
        (void)session->executor().execute_batch(*compiled.plan(),
                                                session->cluster(), points);
        batch_s += s.end();
      }
      Recorder::Scope s(rec, "noise.reduce", call);
      std::vector<atlas::exec::StateMoments> moments(n);
      pool.parallel_for(n, [&](std::size_t j) {
        moments[j] = atlas::exec::state_moments(states[j]);
      });
      for (const atlas::exec::StateMoments& m : moments)
        builder.add(m.norm_sq, m.z, {}, {});
    }
    traced_s += call_span.end();
    r.check(same_result(builder.finish(), expected),
            "traced trajectory walk differs from run_noisy");
    trajectories += kTrajectories;
    calls += 1;
    kernels += kTrajectories * plan_kernels(*compiled.plan());

    const atlas::exec::DistState walked =
        walk(*session, compiled, first_values, layers, rec, call);
    r.check(same_state(walked, session->run(compiled, first_values).state),
            "traced walk differs from Session::run on trajectory 0");
  }
  layers.report(r, opt.stream_gbps);
  report_counters(r, counters, trajectories, kernels, calls);
  report_overhead(r, traced_s, sum(untraced));
  report_tail(r, untraced);
  r.set("noise.build_pct", build_s / traced_s * 100, "%");
  r.set("noise.sample_pct", sample_s / traced_s * 100, "%");
  r.set("device.execute_batch_pct", batch_s / traced_s * 100, "%");
  r.set("device.h2d_bytes_per_traj", device.h2d / trajectories, "bytes");
  r.set("device.d2h_bytes_per_traj", device.d2h / trajectories, "bytes");
  r.set("device.launches_per_traj", device.launches / trajectories, "count");
  r.set("device.const_uploads_per_batch",
        device.batches > 0 ? device.const_uploads / device.batches : 0,
        "count");
}

}  // namespace bench
