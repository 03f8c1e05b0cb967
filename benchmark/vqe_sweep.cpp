// vqe_sweep: a 14-qubit EfficientSU2-style ansatz (4 layers of ry·rz on
// every qubit plus a cx ladder, all 112 angles symbolic) on 16 resident
// shards of 1024 amplitudes (L=10, R=2, G=2). It is compiled once in
// set-up; the loop calls Session::sweep on 32 dense points. The shards
// are tiny, so per-point bind, dispatch and remap dominate and compile
// stays off the critical path: the mirror image of oneshot_table1.

#include <cmath>
#include <memory>
#include <numbers>
#include <thread>

#include "common/rng.h"
#include "exec/queries.h"
#include "walk.h"

namespace bench {
namespace {

constexpr int kQubits = 14;
constexpr int kLayers = 4;
constexpr int kPoints = 32;

atlas::SessionConfig config(int threads) {
  atlas::SessionConfig cfg;
  cfg.cluster.local_qubits = 10;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 2;
  cfg.cluster.gpus_per_node = 4;
  cfg.cluster.num_threads = threads;
  cfg.dispatch_threads = threads;
  return cfg;
}

atlas::Circuit ansatz() {
  atlas::Circuit c(kQubits, "su2_ansatz");
  for (int l = 0; l < kLayers; ++l) {
    for (int q = 0; q < kQubits; ++q) {
      const std::string id = std::to_string(l) + "_" + std::to_string(q);
      c.add(atlas::Gate::ry(q, atlas::Param::symbol("t" + id)));
      c.add(atlas::Gate::rz(q, atlas::Param::symbol("p" + id)));
    }
    for (int q = 0; q + 1 < kQubits; ++q) c.add(atlas::Gate::cx(q, q + 1));
  }
  return c;
}

/// `count` dense points for call `call`, drawn from the run's seed.
std::vector<std::vector<double>> points(std::uint64_t seed, std::uint64_t call,
                                        std::size_t symbols, int count) {
  atlas::Rng rng = atlas::Rng::for_stream(seed, call);
  std::vector<std::vector<double>> pts(static_cast<std::size_t>(count),
                                       std::vector<double>(symbols));
  for (auto& p : pts)
    for (double& v : p) v = rng.uniform(0, 2 * std::numbers::pi);
  return pts;
}

}  // namespace

void vqe_sweep(const Options& opt, Report& r, Recorder& rec) {
  std::unique_ptr<atlas::Session> session;
  atlas::CompiledCircuit compiled;
  Pace pace;
  const std::vector<double> setups = time_setups(
      pace,
      [&] {
        compiled = atlas::CompiledCircuit();
        session.reset();
      },
      [&] {
        session = std::make_unique<atlas::Session>(config(opt.threads));
        compiled = session->compile(ansatz());
        const std::size_t n = compiled.symbols().size();
        (void)session->sweep(compiled, points(opt.seed, 0, n, kPoints));
      });
  const std::size_t symbols = compiled.symbols().size();
  r.check(symbols == 2 * kLayers * kQubits, "ansatz symbol count");

  if (!opt.trace) {
    // Oracle: sweep is bit-identical to per-point run on 4 points.
    const auto four = points(opt.seed, 1, symbols, 4);
    const auto swept = session->sweep(compiled, four);
    for (std::size_t i = 0; i < four.size(); ++i)
      r.check(same_state(swept[i].state, session->run(compiled, four[i]).state),
              "sweep point " + std::to_string(i) + " differs from run");

    std::vector<double> calls;
    const double t0 = now_s();
    for (std::uint64_t call = 2; now_s() - t0 < opt.seconds; ++call) {
      pace.sample();
      const auto pts = points(opt.seed, call, symbols, kPoints);
      const double c0 = now_s();
      const auto results = session->sweep(compiled, pts);
      calls.push_back(now_s() - c0);
      double worst = 0;
      for (const atlas::SimulationResult& res : results)
        worst = std::max(worst, std::abs(res.norm_sq() - 1));
      r.check(results.size() == pts.size() && worst < 1e-9,
              "sweep result count or norm");
    }
    note_sample(r, "sweep", calls);
    end_to_end(r, pace, setups, kPoints, median(calls));
    return;
  }

  // Traced: cold compiles for the compile layers, then per call one
  // Session::sweep off the record and the same points walked under
  // spans, fanned over as many threads as the sweep's dispatch pool.
  Layers layers;
  for (int i = 0; i < 5; ++i) {
    session->clear_plan_cache();
    Recorder::Scope s(rec, "core.compile", 0);
    layers.add_compile(session->compile(ansatz()));
  }
  compiled = session->compile(ansatz());
  const double kernels_per_run = plan_kernels(*compiled.plan());
  double traced_s = 0, runs = 0;
  std::vector<double> untraced;
  Counters counters;
  const double t0 = now_s();
  for (std::uint64_t call = 2; now_s() - t0 < opt.seconds; ++call) {
    const auto pts = points(opt.seed, call, symbols, kPoints);
    const Counters c0 = Counters::read(*session);
    const double s0 = now_s();
    const auto results = session->sweep(compiled, pts);
    untraced.push_back(now_s() - s0);
    counters.add_delta(c0, Counters::read(*session));
    runs += kPoints;

    std::vector<Layers> per_thread(static_cast<std::size_t>(opt.threads));
    std::vector<char> same(pts.size(), 0);
    const double w0 = now_s();
    std::vector<std::thread> workers;
    for (int t = 0; t < opt.threads; ++t)
      workers.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < pts.size();
             i += static_cast<std::size_t>(opt.threads)) {
          const atlas::exec::DistState walked =
              walk(*session, compiled, pts[i],
                   per_thread[static_cast<std::size_t>(t)], rec, call);
          same[i] = same_state(walked, results[i].state);
        }
      });
    for (std::thread& w : workers) w.join();
    traced_s += now_s() - w0;
    for (const Layers& l : per_thread) layers.merge(l);
    for (std::size_t i = 0; i < pts.size(); ++i)
      r.check(same[i] != 0,
              "traced walk differs from sweep point " + std::to_string(i));
  }
  layers.report(r, opt.stream_gbps);
  report_counters(r, counters, runs, runs * kernels_per_run,
                  runs / kPoints);
  report_overhead(r, traced_s, sum(untraced));
  report_tail(r, untraced);
}

}  // namespace bench
