// The trajectory engine behind Session::run_noisy()/sample_noisy():
// fans trajectories across the session's dispatch pool, streams each
// final state into a small per-trajectory partial (weight, raw Z sums,
// measurement samples, optional exact distribution) so N states are
// never resident at once, and reduces the partials in trajectory-index
// order — floating-point accumulation is deterministic no matter how
// the pool interleaves. Lives in noise/ but defines Session members,
// so the general-Kraus path can reach build_plan() directly and keep
// its per-trajectory plans out of the session's LRU cache.

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/bits.h"
#include "common/error.h"
#include "core/session.h"
#include "exec/queries.h"
#include "noise/model.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "verify/verify.h"
#include "noise/trajectory.h"

namespace atlas {
namespace {

/// Salt separating the measurement-shot streams from the channel-
/// outcome streams of the same trajectory.
constexpr std::uint64_t kMeasureSalt = 0x6d65617375726531ull;

/// Pauli-fast-path trajectories routed through a batched-launch
/// executor go in chunks of this many points: within a chunk every
/// trajectory's state is resident at once (the batch schedule needs
/// them), so the chunk bounds peak memory the way the streaming
/// per-trajectory path does, while still amortizing per-point executor
/// setup across the chunk.
constexpr std::size_t kTrajectoryBatchChunk = 32;

/// General-Kraus trajectory plans are memoized on the sampled outcome
/// *pattern* when the whole pattern space — prod over sites of the
/// channel's outcome count — is at most this large: equal patterns
/// lower to identical circuits, so a batch of N trajectories then
/// builds at most this many plans instead of N. Gating on the product
/// (not the site count) also bounds the memo's memory: a larger
/// pattern space means repeats are rare and the map would accumulate
/// one full ExecutionPlan per trajectory as dead weight.
constexpr std::uint64_t kKrausPatternMemoMaxPatterns = 512;

/// The pattern-space size of `sites`, saturating at `cap + 1`.
std::uint64_t pattern_space(const std::vector<noise::NoiseSite>& sites,
                            std::uint64_t cap) {
  std::uint64_t total = 1;
  for (const noise::NoiseSite& site : sites) {
    total *= static_cast<std::uint64_t>(site.channel->outcome_weights().size());
    if (total > cap) return cap + 1;
  }
  return total;
}

struct TrajectoryPartial {
  double weight = 1.0;
  std::vector<double> raw_z;
  std::vector<Index> samples;
  std::vector<double> probs;
};

/// The non-trivial per-qubit readout confusions of a model, resolved
/// once per run — readout_for() is a linear scan that must stay out of
/// the shots-by-qubits inner loop of every trajectory.
std::vector<std::pair<Qubit, noise::ReadoutError>> readout_plan(
    const noise::NoiseModel& model, int num_qubits) {
  std::vector<std::pair<Qubit, noise::ReadoutError>> plan;
  for (Qubit q = 0; q < num_qubits; ++q) {
    const noise::ReadoutError err = model.readout_for(q);
    if (!err.trivial()) plan.emplace_back(q, err);
  }
  return plan;
}

/// Streams one finished trajectory state into its partial.
TrajectoryPartial partial_of(
    const exec::DistState& state,
    const std::vector<std::pair<Qubit, noise::ReadoutError>>& readout,
    int shots, bool accumulate_probs, std::uint64_t seed, std::uint64_t t) {
  const int n = state.num_qubits();
  TrajectoryPartial p;
  exec::StateMoments moments = exec::state_moments(state);
  p.weight = moments.norm_sq;
  p.raw_z = std::move(moments.z);
  if (shots > 0) {
    Rng rng = Rng::for_stream(seed ^ kMeasureSalt, t);
    p.samples = exec::sample(state, shots, rng, p.weight);
    for (Index& s : p.samples)
      for (const auto& [q, err] : readout) {
        const double flip = test_bit(s, q) ? err.p10 : err.p01;
        if (flip > 0 && rng.uniform() < flip) s ^= bit(q);
      }
  }
  if (accumulate_probs) {
    std::vector<Qubit> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    p.probs = exec::marginal_distribution(state, all);
  }
  return p;
}

}  // namespace

noise::NoisyResult Session::run_noisy(
    const Circuit& circuit, const noise::NoiseModel& model,
    const noise::NoisyRunOptions& options) const {
  ATLAS_CHECK(options.trajectories >= 1,
              "run_noisy needs trajectories >= 1, got "
                  << options.trajectories);
  ATLAS_CHECK(options.shots >= 0,
              "run_noisy shots is negative: " << options.shots);
  if (options.accumulate_probabilities)
    ATLAS_CHECK(circuit.num_qubits() <= noise::kMaxProbabilityQubits,
                "accumulate_probabilities is capped at "
                    << noise::kMaxProbabilityQubits << " qubits, circuit has "
                    << circuit.num_qubits());

  // The noise-model contract (Kraus shapes always; CPTP and readout
  // stochasticity numerics at paranoid) is checked once up front —
  // trajectory sampling assumes it.
  if (config_.verify_level != verify::VerifyLevel::off)
    verify::check(verify::verify_noise_model(model, circuit.num_qubits(),
                                             config_.verify_level),
                  ErrorCode::invalid_argument);

  const std::uint64_t seed = options.seed ? options.seed : config_.seed;
  const noise::TrajectoryProgram prog =
      noise::TrajectoryProgram::build(circuit, model);
  const auto readout = readout_plan(model, circuit.num_qubits());
  const std::size_t count = static_cast<std::size_t>(options.trajectories);
  std::vector<TrajectoryPartial> partials(count);

  // Trajectory fan-out telemetry: one batch, `count` unravellings.
  {
    static obs::Counter& batches = obs::counter(obs::names::kNoiseBatches);
    static obs::Counter& trajectories =
        obs::counter(obs::names::kNoiseTrajectories);
    batches.inc();
    trajectories.add(count);
  }
  obs::TraceSpan batch_span(obs::names::kSpanNoiseBatch,
                            static_cast<std::int64_t>(count));

  if (prog.pauli_fast_path()) {
    // One compile, one plan-cache entry; every trajectory re-binds the
    // same CompiledCircuit through the dense slot table.
    const CompiledCircuit compiled = compile(prog.twirled());
    std::unordered_map<std::string, std::size_t> flat_index;
    for (std::size_t j = 0; j < prog.noise_symbols().size(); ++j)
      flat_index[prog.noise_symbols()[j]] = j;
    std::vector<int> positions(prog.noise_symbols().size(), -1);
    std::vector<double> base(compiled.symbols().size(), 0.0);
    for (std::size_t i = 0; i < compiled.symbols().size(); ++i) {
      const std::string& sym = compiled.symbols()[i];
      const auto it = flat_index.find(sym);
      if (it != flat_index.end())
        positions[it->second] = static_cast<int>(i);
      else
        base[i] = options.binding.at(sym);  // throws naming the symbol
    }
    run_points(
        compiled, count, kTrajectoryBatchChunk,
        [&](std::size_t t) {
          std::vector<double> values = base;
          prog.sample_pauli_angles(seed, t, positions, values);
          return compiled.slot_values_from(values);
        },
        [&](std::size_t t, const SimulationResult& r) {
          partials[t] = partial_of(r.state, readout, options.shots,
                                   options.accumulate_probabilities, seed, t);
        });
  } else {
    // General Kraus: each trajectory carries its own sampled operator
    // matrices, so it is lowered and planned per outcome *pattern* —
    // bypassing the LRU plan cache on purpose (N structurally distinct
    // entries would evict the session's real plans). Equal patterns
    // lower to identical circuits, so a run-local memo (small pattern
    // spaces only — the bound caps the memo's plan count) collapses N
    // trajectory plans to the number of distinct patterns actually
    // drawn: the first trajectory to draw a pattern builds its plan,
    // and every other one, concurrent ones included, waits for it. The
    // final norm^2 is the trajectory's weight; partial_of() threads it
    // through sampling and the Builder keeps the mixture estimator
    // unbiased.
    const bool memoize =
        pattern_space(prog.sites(), kKrausPatternMemoMaxPatterns) <=
        kKrausPatternMemoMaxPatterns;
    struct MemoEntry {
      std::once_flag built;
      std::shared_ptr<const exec::ExecutionPlan> plan;
    };
    std::mutex memo_mu;
    std::map<std::vector<int>, MemoEntry> memo;  // nodes never move
    dispatch_each(count, [&](std::size_t t) {
      const std::vector<int> outcomes = prog.sample_outcomes(seed, t);
      const auto build = [&] {
        Circuit lowered = prog.lower_outcomes(outcomes);
        if (lowered.is_parameterized())
          lowered = lowered.bind(options.binding);
        return std::make_shared<const exec::ExecutionPlan>(
            build_plan(lowered));
      };
      std::shared_ptr<const exec::ExecutionPlan> plan;
      if (memoize) {
        MemoEntry* entry = nullptr;
        {
          std::lock_guard<std::mutex> lock(memo_mu);
          entry = &memo[outcomes];
        }
        std::call_once(entry->built, [&] { entry->plan = build(); });
        plan = entry->plan;
      } else {
        plan = build();
      }
      exec::DistState state = executor_->initial_state(*plan, cluster_);
      executor_->execute(*plan, cluster_, state, ParamEnv{});
      partials[t] = partial_of(state, readout, options.shots,
                               options.accumulate_probabilities, seed, t);
    });
  }

  noise::NoisyResultBuilder builder(circuit.num_qubits(),
                                      prog.pauli_fast_path(), options.shots,
                                      options.accumulate_probabilities,
                                      readout);
  for (const TrajectoryPartial& p : partials)
    builder.add(p.weight, p.raw_z, p.samples, p.probs);
  return builder.finish();
}

noise::NoisyResult Session::sample_noisy(const Circuit& circuit,
                                         const noise::NoiseModel& model,
                                         int shots,
                                         noise::NoisyRunOptions options) const {
  ATLAS_CHECK(shots >= 1, "sample_noisy needs shots >= 1, got " << shots);
  options.shots = shots;
  return run_noisy(circuit, model, options);
}

}  // namespace atlas
