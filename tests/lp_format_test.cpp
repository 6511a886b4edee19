// Tests for the CPLEX LP format writer/parser and the solution file I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "lp/lp_format.h"
#include "lp/model.h"
#include "lp/lp_engine.h"

namespace etransform::lp {
namespace {

Model sample_model() {
  Model m;
  const int x = m.add_continuous("x", 0.0, 4.0);
  const int y = m.add_continuous("y", -2.0, kInfinity);
  const int b = m.add_binary("pick");
  const int g = m.add_variable("count", 0.0, 9.0, true);
  const int f = m.add_variable("slackish", -kInfinity, kInfinity);
  m.set_objective(Sense::kMinimize,
                  {{x, 1.5}, {y, -2.0}, {b, 10.0}, {g, 0.25}}, 7.0);
  m.add_constraint("r1", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 10.0);
  m.add_constraint("r2", {{x, 2.0}, {b, -3.0}}, Relation::kGreaterEqual, -1.0);
  m.add_constraint("r3", {{g, 1.0}, {f, 1.0}}, Relation::kEqual, 5.0);
  return m;
}

TEST(LpWriter, EmitsAllSections) {
  const std::string text = write_lp(sample_model());
  EXPECT_NE(text.find("Minimize"), std::string::npos);
  EXPECT_NE(text.find("Subject To"), std::string::npos);
  EXPECT_NE(text.find("Bounds"), std::string::npos);
  EXPECT_NE(text.find("Binary"), std::string::npos);
  EXPECT_NE(text.find("General"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
  EXPECT_NE(text.find("slackish free"), std::string::npos);
}

TEST(LpRoundTrip, PreservesStructureAndSemantics) {
  const Model original = sample_model();
  const Model reparsed = parse_lp(write_lp(original));
  ASSERT_EQ(reparsed.num_variables(), original.num_variables());
  ASSERT_EQ(reparsed.num_constraints(), original.num_constraints());
  EXPECT_EQ(reparsed.sense(), original.sense());
  EXPECT_DOUBLE_EQ(reparsed.objective_constant(),
                   original.objective_constant());
  for (int j = 0; j < original.num_variables(); ++j) {
    EXPECT_EQ(reparsed.variable(j).lower, original.variable(j).lower);
    EXPECT_EQ(reparsed.variable(j).upper, original.variable(j).upper);
    EXPECT_EQ(reparsed.variable(j).is_integer, original.variable(j).is_integer);
  }
  // Second write must be a fixed point of write/parse.
  EXPECT_EQ(write_lp(reparsed), write_lp(parse_lp(write_lp(reparsed))));
}

TEST(LpRoundTrip, SolvesToTheSameOptimum) {
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_continuous("y");
  m.set_objective(Sense::kMaximize, {{x, 3.0}, {y, 5.0}});
  m.add_constraint("c1", {{x, 1.0}}, Relation::kLessEqual, 4.0);
  m.add_constraint("c2", {{y, 2.0}}, Relation::kLessEqual, 12.0);
  m.add_constraint("c3", {{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  LpEngine solver;
  SolveContext ctx;
  const auto direct = solver.solve(m, ctx);
  const auto reparsed = solver.solve(parse_lp(write_lp(m)), ctx);
  ASSERT_EQ(direct.status, SolveStatus::kOptimal);
  ASSERT_EQ(reparsed.status, SolveStatus::kOptimal);
  EXPECT_NEAR(direct.objective, reparsed.objective, 1e-9);
}

TEST(LpWriter, SanitizesHostileNames) {
  Model m;
  const int a = m.add_continuous("3 bad name!");
  const int b = m.add_continuous("e9risky");
  const int c = m.add_continuous("ok_name");
  m.set_objective(Sense::kMinimize, {{a, 1.0}, {b, 1.0}, {c, 1.0}});
  m.add_constraint("weird row?", {{a, 1.0}, {b, 1.0}, {c, 1.0}},
                   Relation::kGreaterEqual, 1.0);
  const Model reparsed = parse_lp(write_lp(m));
  EXPECT_EQ(reparsed.num_variables(), 3);
  EXPECT_EQ(reparsed.num_constraints(), 1);
}

TEST(LpWriter, UniquifiesDuplicateNames) {
  Model m;
  const int a = m.add_continuous("x");
  const int b = m.add_continuous("x");
  m.set_objective(Sense::kMinimize, {{a, 1.0}, {b, 2.0}});
  m.add_constraint("c", {{a, 1.0}, {b, 1.0}}, Relation::kGreaterEqual, 2.0);
  const Model reparsed = parse_lp(write_lp(m));
  EXPECT_EQ(reparsed.num_variables(), 2);
  LpEngine solver;
  SolveContext ctx;
  const auto s = solver.solve(reparsed, ctx);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);  // all weight on the cheap copy
}

TEST(LpParser, AcceptsHandWrittenFile) {
  const std::string text = R"(\ hand-written
Minimize
 obj: 2 x + 3 y - 4
Subject To
 cap: x + y <= 10
 floor: x - y >= -2
 tie: x + 2 y = 8
Bounds
 -1 <= x <= 6
 y <= 9
General
 y
End
)";
  const Model m = parse_lp(text);
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.num_constraints(), 3);
  EXPECT_DOUBLE_EQ(m.objective_constant(), -4.0);
  EXPECT_EQ(m.variable(0).lower, -1.0);
  EXPECT_EQ(m.variable(0).upper, 6.0);
  EXPECT_EQ(m.variable(1).upper, 9.0);
  EXPECT_TRUE(m.variable(1).is_integer);
  EXPECT_EQ(m.constraint(1).relation, Relation::kGreaterEqual);
  EXPECT_DOUBLE_EQ(m.constraint(1).rhs, -2.0);
}

TEST(LpParser, HandlesVariablesOnBothSidesOfRelation) {
  const std::string text = R"(Minimize
 obj: x
Subject To
 c: 2 x + 1 <= x + 5
End
)";
  const Model m = parse_lp(text);
  ASSERT_EQ(m.num_constraints(), 1);
  const auto& row = m.constraint(0);
  ASSERT_EQ(row.terms.size(), 1u);
  EXPECT_DOUBLE_EQ(row.terms[0].coef, 1.0);
  EXPECT_DOUBLE_EQ(row.rhs, 4.0);
}

TEST(LpParser, HandlesScientificNotationAndSigns) {
  const std::string text = R"(Maximize
 obj: 1e2 x - 2.5e-1 y + - 3 z
Subject To
 c: x + y + z <= 1
End
)";
  const Model m = parse_lp(text);
  EXPECT_EQ(m.num_variables(), 3);
  const auto terms = merge_terms(m.objective());
  EXPECT_DOUBLE_EQ(terms[0].coef, 100.0);
  EXPECT_DOUBLE_EQ(terms[1].coef, -0.25);
  EXPECT_DOUBLE_EQ(terms[2].coef, -3.0);
}

TEST(LpParser, InfiniteBounds) {
  const std::string text = R"(Minimize
 obj: x + y
Subject To
 c: x + y >= 1
Bounds
 -inf <= x <= 5
 y free
End
)";
  const Model m = parse_lp(text);
  EXPECT_EQ(m.variable(0).lower, -kInfinity);
  EXPECT_EQ(m.variable(0).upper, 5.0);
  EXPECT_EQ(m.variable(1).lower, -kInfinity);
  EXPECT_EQ(m.variable(1).upper, kInfinity);
}

TEST(LpParser, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_lp("Subject To\n c: x <= 1\nEnd\n"), ParseError);
  EXPECT_THROW((void)parse_lp("Minimize\n obj: x +\nEnd\n"), ParseError);
  EXPECT_THROW((void)parse_lp("Minimize\n obj: x\nSubject To\n c: x ? 1\nEnd\n"),
               ParseError);
  EXPECT_THROW((void)parse_lp("Minimize\n obj: x\nBounds\n x <= oops\nEnd\n"),
               ParseError);
}

TEST(LpParser, ReportsLineNumbers) {
  try {
    (void)parse_lp("Minimize\n obj: x\nSubject To\n c: x ? 1\nEnd\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(SolutionFile, RoundTripsThroughText) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 4.0);
  m.set_objective(Sense::kMaximize, {{x, 2.0}});
  LpEngine solver;
  SolveContext ctx;
  const auto solution = solver.solve(m, ctx);
  const std::string text = write_solution(m, solution);
  const SolutionFile parsed = parse_solution(text);
  EXPECT_EQ(parsed.status, "optimal");
  EXPECT_NEAR(parsed.objective, 8.0, 1e-9);
  ASSERT_EQ(parsed.values.size(), 1u);
  EXPECT_EQ(parsed.values[0].first, "x");
  EXPECT_NEAR(parsed.values[0].second, 4.0, 1e-9);
}

TEST(SolutionFile, RejectsMalformedText) {
  EXPECT_THROW((void)parse_solution("x 1\n"), ParseError);
  EXPECT_THROW((void)parse_solution("status optimal\nobjective x\n"),
               ParseError);
  EXPECT_THROW(
      (void)parse_solution("status optimal\nobjective 1\nx one two\n"),
      ParseError);
}

TEST(LpWriter, StreamOverloadMatchesString) {
  const Model m = sample_model();
  std::ostringstream out;
  write_lp(m, out);
  EXPECT_EQ(out.str(), write_lp(m));
}

}  // namespace
}  // namespace etransform::lp
