// Standalone optimization engine (the right half of the paper's Fig. 5).
//
// The eTransform prototype wrote a CPLEX LP file and invoked the solver as a
// separate engine; this tool is that engine. It reads a model in CPLEX LP
// format, solves it (simplex for pure LPs, branch-and-bound when integer
// variables are present), and writes a solution file.
//
// Usage:
//   lp_tool model.lp [solution.out]    solve a file
//   lp_tool --demo                     solve a built-in example
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/error.h"
#include "lp/lp_engine.h"
#include "lp/lp_format.h"
#include "lp/presolve.h"
#include "milp/branch_and_bound.h"

using namespace etransform;

namespace {

const char kDemo[] = R"(\ demo knapsack
Maximize
 obj: 60 take0 + 100 take1 + 120 take2
Subject To
 weight: 10 take0 + 20 take1 + 30 take2 <= 50
Binary
 take0 take1 take2
End
)";

int solve_text(const std::string& text, const char* output_path) {
  const lp::Model model = lp::parse_lp(text);
  std::fprintf(stderr, "parsed: %d variables, %d constraints, %s\n",
               model.num_variables(), model.num_constraints(),
               model.has_integer_variables() ? "MILP" : "LP");
  SolveContext ctx;
  const lp::PresolveResult presolved = lp::presolve(model, ctx);
  lp::LpSolution solution;
  if (presolved.status == lp::PresolveStatus::kInfeasible) {
    std::fprintf(stderr, "presolve: infeasible\n");
    solution.status = lp::SolveStatus::kInfeasible;
  } else {
    std::fprintf(stderr, "presolve: removed %d variables, %d rows\n",
                 presolved.vars_removed, presolved.rows_removed);
    const lp::Model& reduced = presolved.reduced;
    if (reduced.has_integer_variables()) {
      const milp::BranchAndBoundSolver solver;
      const milp::MilpSolution milp_solution = solver.solve(reduced, ctx);
      std::fprintf(stderr, "branch-and-bound: %s, %d nodes, %d LP pivots\n",
                   milp::to_string(milp_solution.status), milp_solution.nodes,
                   milp_solution.lp_iterations);
      solution.status =
          milp_solution.status == milp::MilpStatus::kOptimal ||
                  milp_solution.status == milp::MilpStatus::kFeasible
              ? lp::SolveStatus::kOptimal
              : lp::SolveStatus::kInfeasible;
      solution.objective = milp_solution.objective;
      if (solution.status == lp::SolveStatus::kOptimal) {
        solution.values = lp::postsolve(presolved, milp_solution.values);
      }
    } else {
      lp::LpEngine solver;
      solution = solver.solve(reduced, ctx);
      std::fprintf(stderr, "simplex: %s in %d pivots\n",
                   lp::to_string(solution.status), solution.iterations);
      if (solution.status == lp::SolveStatus::kOptimal) {
        solution.values = lp::postsolve(presolved, solution.values);
      }
    }
  }
  const std::string rendered = lp::write_solution(model, solution);
  if (output_path != nullptr) {
    std::ofstream out(output_path);
    out << rendered;
    std::fprintf(stderr, "solution written to %s\n", output_path);
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return solution.status == lp::SolveStatus::kOptimal ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "--demo") {
      return solve_text(kDemo, nullptr);
    }
    if (argc < 2) {
      std::fprintf(stderr, "usage: %s <model.lp> [solution.out] | --demo\n",
                   argv[0]);
      return 1;
    }
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return solve_text(buffer.str(), argc >= 3 ? argv[2] : nullptr);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
