#include "opt/pass_manager.h"

#include <algorithm>

#include "common/error.h"
#include "common/timer.h"

namespace atlas::opt {
namespace {

/// Passes that run once after the fixpoint loop instead of inside it:
/// reorder permutes without shrinking, so iterating it against the
/// local passes could ping-pong.
bool tail_pass(const std::string& name) { return name == "reorder"; }

}  // namespace

std::vector<std::string> default_passes(int level) {
  ATLAS_CHECK(level >= 0 && level <= 2,
              "optimization level must be in [0, 2], got " << level);
  std::vector<std::string> names;
  if (level >= 1) {
    names.push_back("cancel-inverses");
    names.push_back("merge-rotations");
    names.push_back("drop-identities");
  }
  if (level >= 2) {
    // Insert the structural resyntheses between merging and identity
    // elimination so their products are cleaned up in the same round.
    names = {"cancel-inverses", "merge-rotations", "block2q",
             "resynth-1q",      "drop-identities", "reorder"};
  }
  return names;
}

PassManager::PassManager(const OptOptions& options) : options_(options) {
  ATLAS_CHECK(options.max_rounds >= 1,
              "opt.max_rounds must be >= 1, got " << options.max_rounds);
  std::vector<std::string> names = default_passes(options.level);
  for (const std::string& name : options.enable)
    if (std::find(names.begin(), names.end(), name) == names.end())
      names.push_back(name);
  for (const std::string& name : names)
    (tail_pass(name) ? tail_passes_ : loop_passes_).push_back(&find_pass(name));
}

std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> names;
  for (const auto& p : loop_passes_) names.push_back(p->name());
  for (const auto& p : tail_passes_) names.push_back(p->name());
  return names;
}

Circuit PassManager::run(const Circuit& circuit, const PassContext& caller_ctx,
                         OptReport* report) const {
  Timer total;
  // The manager's own OptOptions::pass is authoritative — callers
  // supply the machine context, the manager the pass knobs.
  PassContext ctx = caller_ctx;
  ctx.options = options_.pass;
  Circuit current = circuit;
  std::vector<PassStats> stats;
  for (const auto& p : loop_passes_) stats.push_back({p->name(), 0, 0, 0});
  for (const auto& p : tail_passes_) stats.push_back({p->name(), 0, 0, 0});

  int rounds = 0;
  if (!loop_passes_.empty()) {
    for (; rounds < options_.max_rounds; ++rounds) {
      bool changed = false;
      for (std::size_t pi = 0; pi < loop_passes_.size(); ++pi) {
        Timer t;
        const int before = current.num_gates();
        const bool did = loop_passes_[pi]->run(current, ctx);
        stats[pi].seconds += t.seconds();
        if (did) {
          ++stats[pi].applications;
          stats[pi].gates_removed += before - current.num_gates();
          changed = true;
        }
      }
      if (!changed) break;
    }
  }
  for (std::size_t ti = 0; ti < tail_passes_.size(); ++ti) {
    const std::size_t pi = loop_passes_.size() + ti;
    Timer t;
    const int before = current.num_gates();
    if (tail_passes_[ti]->run(current, ctx)) {
      ++stats[pi].applications;
      stats[pi].gates_removed += before - current.num_gates();
    }
    stats[pi].seconds += t.seconds();
  }

  if (report != nullptr) {
    report->gates_before = circuit.num_gates();
    report->gates_after = current.num_gates();
    report->rounds = rounds;
    report->seconds = total.seconds();
    report->passes = std::move(stats);
  }
  return current;
}

}  // namespace atlas::opt
