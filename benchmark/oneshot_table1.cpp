// oneshot_table1: the 11 Table-I families at n=21 on a 16-shard
// in-memory cluster (L=17, R=2, G=2, 4 GPUs per node). One op is what a
// one-shot user pays: clear the plan cache, compile, run. It is the
// only workload with the DP kernelizer and the apply kernels on the
// critical path; plan caching, binding and serving play no part.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "circuits/families.h"
#include "common/rng.h"
#include "exec/queries.h"
#include "sim/reference.h"
#include "walk.h"

namespace bench {
namespace {

constexpr int kQubits = 21;
constexpr int kCheckQubits = 12;

atlas::SessionConfig config(int qubits, int threads) {
  atlas::SessionConfig cfg;
  cfg.cluster.local_qubits = qubits - 4;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 2;
  cfg.cluster.gpus_per_node = 4;
  cfg.cluster.num_threads = threads;
  return cfg;
}

/// The families at `n` qubits; the three with random angles draw them
/// from `seed` (structure is seed-independent).
std::vector<atlas::Circuit> families(int n, std::uint64_t seed) {
  std::vector<atlas::Circuit> out;
  for (const std::string& name : atlas::circuits::family_names()) {
    if (name == "qsvm")
      out.push_back(atlas::circuits::qsvm(n, atlas::rng_stream_seed(seed, 1)));
    else if (name == "su2random")
      out.push_back(
          atlas::circuits::su2random(n, atlas::rng_stream_seed(seed, 2)));
    else if (name == "vqc")
      out.push_back(atlas::circuits::vqc(n, atlas::rng_stream_seed(seed, 3)));
    else
      out.push_back(atlas::circuits::make_family(name, n));
  }
  return out;
}

/// Every family at n=12 against the reference simulator.
void check_against_reference(const Options& opt, Report& r) {
  atlas::Session session(config(kCheckQubits, opt.threads));
  const std::vector<std::string>& names = atlas::circuits::family_names();
  const std::vector<atlas::Circuit> circuits =
      families(kCheckQubits, opt.seed);
  for (std::size_t f = 0; f < circuits.size(); ++f) {
    const atlas::SimulationResult res =
        session.run(session.compile(circuits[f]), atlas::ParamBinding{});
    const double err = res.state.gather().max_abs_diff(
        atlas::simulate_reference(circuits[f]));
    r.check(err <= 1e-10, names[f] + " at n=12 differs from the reference by " +
                              std::to_string(err));
  }
}

/// Rounds over the families in a seeded order; each round starts only
/// if it is expected to end within the run's length (at least one).
template <typename Op>
void rounds(const Options& opt, std::size_t families, Op&& op) {
  const double t0 = now_s();
  for (std::uint64_t round = 0;; ++round) {
    std::vector<std::size_t> order(families);
    std::iota(order.begin(), order.end(), 0);
    atlas::Rng rng = atlas::Rng::for_stream(opt.seed, 100 + round);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.index(i)]);
    for (std::size_t f : order) op(f);
    const double elapsed = now_s() - t0;
    const double per_round = elapsed / static_cast<double>(round + 1);
    if (elapsed + per_round > opt.seconds) break;
  }
}

/// Each family's op time: its median over the rounds. A round runs every
/// family once, and two families take two thirds of it, so a quantile
/// over single ops would jump with the number of rounds in the run.
std::vector<double> family_medians(const std::vector<std::vector<double>>& ops) {
  std::vector<double> out;
  for (const std::vector<double>& samples : ops) out.push_back(median(samples));
  return out;
}

}  // namespace

void oneshot_table1(const Options& opt, Report& r, Recorder& rec) {
  const std::vector<std::string>& names = atlas::circuits::family_names();
  // A one-shot user's set-up ends with the first result, so it includes
  // one cold compile and run of a fixed family. Session construction and
  // circuit generation alone take half a millisecond, too little to time
  // steadily on a shared host.
  const std::size_t first = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), "ising") - names.begin());
  std::unique_ptr<atlas::Session> session;
  std::vector<atlas::Circuit> circuits;
  Pace pace;
  const std::vector<double> setups = time_setups(
      pace,
      [&] {
        session.reset();
        circuits.clear();
      },
      [&] {
        session = std::make_unique<atlas::Session>(config(kQubits, opt.threads));
        circuits = families(kQubits, opt.seed);
        (void)session->run(session->compile(circuits[first]),
                           atlas::ParamBinding{});
      });
  std::vector<std::uint64_t> hashes(circuits.size(), 0);
  // Norm and cross-round determinism of every n=21 state, off the clock.
  const auto check_state = [&](std::size_t f,
                               const atlas::exec::DistState& state) {
    const double norm = atlas::exec::norm_sq(state);
    r.check(std::abs(norm - 1) < 1e-9,
            names[f] + " norm " + std::to_string(norm));
    const std::uint64_t h = state_hash(state);
    if (hashes[f] == 0) hashes[f] = h;
    r.check(hashes[f] == h, names[f] + " state differs across rounds");
  };

  if (!opt.trace) {
    check_against_reference(opt, r);
    std::vector<std::vector<double>> ops(circuits.size());
    rounds(opt, circuits.size(), [&](std::size_t f) {
      pace.sample();
      const double t0 = now_s();
      session->clear_plan_cache();
      const atlas::SimulationResult res =
          session->run(session->compile(circuits[f]), atlas::ParamBinding{});
      ops[f].push_back(now_s() - t0);
      check_state(f, res.state);
    });
    for (std::size_t f = 0; f < ops.size(); ++f)
      note_sample(r, "op." + names[f], ops[f]);
    const std::vector<double> family_s = family_medians(ops);
    end_to_end(r, pace, setups, static_cast<double>(family_s.size()),
               sum(family_s));
    return;
  }

  // Traced: every op twice, cold both times — once decomposed into
  // layer calls under spans, once through Session::run off the record —
  // and the two final states must match bit for bit.
  Layers layers;
  double traced_s = 0, untraced_s = 0, kernels = 0, runs = 0;
  std::vector<std::vector<double>> untraced(circuits.size());
  Counters counters;
  std::uint64_t op_id = 0;
  rounds(opt, circuits.size(), [&](std::size_t f) {
    atlas::exec::DistState walked;
    {
      Recorder::Scope op(rec, "oneshot.op", ++op_id);
      session->clear_plan_cache();
      atlas::CompiledCircuit compiled;
      {
        Recorder::Scope s(rec, "core.compile", op_id);
        compiled = session->compile(circuits[f]);
      }
      layers.add_compile(compiled);
      walked = walk(*session, compiled, {}, layers, rec, op_id);
      traced_s += op.end();
    }
    const Counters c0 = Counters::read(*session);
    const double t0 = now_s();
    session->clear_plan_cache();
    const atlas::CompiledCircuit compiled = session->compile(circuits[f]);
    const atlas::SimulationResult res =
        session->run(compiled, atlas::ParamBinding{});
    untraced[f].push_back(now_s() - t0);
    untraced_s += untraced[f].back();
    counters.add_delta(c0, Counters::read(*session));
    kernels += plan_kernels(*compiled.plan());
    runs += 1;
    r.check(same_state(walked, res.state),
            names[f] + ": traced walk differs from Session::run");
    check_state(f, res.state);
  });
  layers.report(r, opt.stream_gbps);
  report_counters(r, counters, runs, kernels, runs);
  report_overhead(r, traced_s, untraced_s);
  report_tail(r, family_medians(untraced));
}

}  // namespace bench
