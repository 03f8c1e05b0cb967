#include "ilp/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace atlas::ilp {
namespace {

constexpr double kIntTol = 1e-6;

bool is_integral(double v) {
  return std::abs(v - std::round(v)) < kIntTol;
}

/// Checks a candidate 0/1 vector against the raw rows.
bool satisfies(const std::vector<lp::LpRow>& rows, const std::vector<int>& x) {
  for (const auto& r : rows) {
    double lhs = 0;
    for (std::size_t k = 0; k < r.vars.size(); ++k)
      lhs += r.coeffs[k] * x[r.vars[k]];
    switch (r.sense) {
      case lp::RowSense::LessEq:
        if (lhs > r.rhs + kIntTol) return false;
        break;
      case lp::RowSense::GreaterEq:
        if (lhs < r.rhs - kIntTol) return false;
        break;
      case lp::RowSense::Eq:
        if (std::abs(lhs - r.rhs) > kIntTol) return false;
        break;
    }
  }
  return true;
}

}  // namespace

int IlpModel::add_binary(double obj_coeff, std::string name) {
  objective_.push_back(obj_coeff);
  // A char prefix: the const char* form trips a GCC 12 -Wrestrict
  // false positive in the inlined string replace.
  if (name.empty()) name = 'x' + std::to_string(names_.size());
  names_.push_back(std::move(name));
  return static_cast<int>(names_.size()) - 1;
}

void IlpModel::add_constraint(std::vector<int> vars,
                              std::vector<double> coeffs, lp::RowSense sense,
                              double rhs) {
  ATLAS_CHECK(vars.size() == coeffs.size(), "ragged constraint");
  for (int v : vars)
    ATLAS_CHECK(v >= 0 && v < num_vars(), "unknown variable " << v);
  rows_.push_back(lp::LpRow{std::move(vars), std::move(coeffs), sense, rhs});
}

void IlpModel::add_le_sum(int a, std::vector<int> rhs_vars) {
  std::vector<int> vars = {a};
  std::vector<double> coeffs = {1.0};
  for (int v : rhs_vars) {
    vars.push_back(v);
    coeffs.push_back(-1.0);
  }
  add_constraint(std::move(vars), std::move(coeffs), lp::RowSense::LessEq,
                 0.0);
}

IlpSolution IlpModel::solve(long max_nodes) const {
  const int n = num_vars();

  IlpSolution best;
  best.status = IlpStatus::Infeasible;
  double incumbent = std::numeric_limits<double>::infinity();

  // A branch-and-bound node fixes a prefix-arbitrary subset of
  // variables; unfixed = -1.
  struct Node {
    std::vector<int> fixed;  // -1 / 0 / 1 per variable
  };
  std::vector<Node> stack;
  stack.push_back(Node{std::vector<int>(n, -1)});

  long nodes = 0;
  while (!stack.empty()) {
    if (nodes >= max_nodes) {
      if (best.status == IlpStatus::Optimal) best.status = IlpStatus::Feasible;
      else best.status = IlpStatus::NodeLimit;
      best.nodes_explored = nodes;
      return best;
    }
    ++nodes;
    const Node node = std::move(stack.back());
    stack.pop_back();

    // Build the LP relaxation with the node's fixings as bound rows.
    lp::LpProblem lp;
    lp.num_vars = n;
    lp.objective = objective_;
    lp.upper.assign(n, 1.0);
    lp.rows = rows_;
    for (int j = 0; j < n; ++j) {
      if (node.fixed[j] == 0) {
        lp.upper[j] = 0.0;
      } else if (node.fixed[j] == 1) {
        lp.rows.push_back(
            lp::LpRow{{j}, {1.0}, lp::RowSense::GreaterEq, 1.0});
      }
    }
    const lp::LpSolution relax = lp::solve(lp);
    if (relax.status == lp::LpStatus::Infeasible) continue;
    ATLAS_CHECK(relax.status == lp::LpStatus::Optimal,
                "0/1 relaxation cannot be unbounded");
    if (relax.objective >= incumbent - kIntTol) continue;  // bound

    // Integral relaxation: new incumbent.
    int frac_var = -1;
    double frac_dist = -1.0;
    for (int j = 0; j < n; ++j) {
      if (!is_integral(relax.x[j])) {
        const double d = std::abs(relax.x[j] - 0.5);
        if (frac_var < 0 || d < frac_dist) {
          frac_var = j;
          frac_dist = d;
        }
      }
    }
    if (frac_var < 0) {
      std::vector<int> xi(n);
      for (int j = 0; j < n; ++j) xi[j] = static_cast<int>(std::round(relax.x[j]));
      if (satisfies(rows_, xi) && relax.objective < incumbent) {
        incumbent = relax.objective;
        best.status = IlpStatus::Optimal;
        best.objective = relax.objective;
        best.x = std::move(xi);
      }
      continue;
    }

    // Rounding heuristic: snap the fractional solution and test it.
    {
      std::vector<int> xi(n);
      for (int j = 0; j < n; ++j)
        xi[j] = relax.x[j] >= 0.5 ? 1 : 0;
      if (satisfies(rows_, xi)) {
        double obj = 0;
        for (int j = 0; j < n; ++j) obj += objective_[j] * xi[j];
        if (obj < incumbent) {
          incumbent = obj;
          best.status = IlpStatus::Optimal;
          best.objective = obj;
          best.x = std::move(xi);
        }
      }
    }

    // Branch on the most fractional variable, exploring the rounded
    // direction first (pushed last = popped first).
    Node down = node, up = node;
    down.fixed[frac_var] = 0;
    up.fixed[frac_var] = 1;
    if (relax.x[frac_var] >= 0.5) {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    } else {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    }
  }

  best.nodes_explored = nodes;
  if (best.status == IlpStatus::Optimal) {
    // Exhausted the whole tree: incumbent proven optimal.
    return best;
  }
  return best;  // Infeasible
}

}  // namespace atlas::ilp
