// Equivalence tests for fmatrix/: materialisation against per-row feature
// decoding (with and without multi-attribute columns), and the factorised
// gram, left and right multiplication against dense references over
// single-attribute random forests. The factorised operators refuse
// multi-attribute matrices, which the engine materialises instead.

#include "common/rng.h"
#include "fmatrix/gram.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/materialize.h"
#include "fmatrix/right_mult.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace reptile {
namespace {

TEST(Materialize, MatchesFeatureRows) {
  struct Case {
    int seed;
    int hierarchies;
    int num_multi;
  };
  std::vector<Case> cases = {{2, 2, 1}};
  for (int seed = 100; seed < 104; ++seed) {
    cases.push_back(Case{seed, 2, 1});
    cases.push_back(Case{seed, 2, 2});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed) + " multi " + std::to_string(c.num_multi));
    Rng rng(c.seed);
    testutil::RandomMatrix rm =
        testutil::MakeRandomMatrix(&rng, c.hierarchies, 3, 4, c.num_multi);
    EXPECT_FALSE(rm.fm.AllSingleAttribute());
    Matrix x = MaterializeMatrix(rm.fm);
    ASSERT_EQ(static_cast<int64_t>(x.rows()), rm.fm.num_rows());
    std::vector<double> row;
    for (int64_t r = 0; r < rm.fm.num_rows(); ++r) {
      rm.fm.FeatureRow(r, &row);
      for (int col = 0; col < rm.fm.num_cols(); ++col) {
        EXPECT_DOUBLE_EQ(x(static_cast<size_t>(r), static_cast<size_t>(col)), row[col])
            << "row " << r << " col " << col;
      }
    }
  }
}

struct OpsParam {
  int seed;
  int hierarchies;
  int num_multi;
};

class FmatrixOpsTest : public ::testing::TestWithParam<OpsParam> {};

TEST_P(FmatrixOpsTest, GramMatchesDense) {
  OpsParam p = GetParam();
  Rng rng(p.seed);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  DecomposedAggregates agg(&rm.fm, rm.LocalPtrs());
  if (!rm.fm.AllSingleAttribute()) {
    EXPECT_DEATH(FactorizedGram(rm.fm, agg), "AllSingleAttribute");
    return;
  }
  Matrix x = MaterializeMatrix(rm.fm);
  Matrix expected = x.Transposed().Multiply(x);
  Matrix actual = FactorizedGram(rm.fm, agg);
  EXPECT_TRUE(actual.ApproxEquals(expected, 1e-8))
      << "factorized:\n" << actual.DebugString() << "\ndense:\n" << expected.DebugString();
}

TEST_P(FmatrixOpsTest, LeftMultiplyMatchesDense) {
  OpsParam p = GetParam();
  Rng rng(p.seed + 1000);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  std::vector<double> r = testutil::RandomVector(&rng, rm.fm.num_rows());
  if (!rm.fm.AllSingleAttribute()) {
    EXPECT_DEATH(FactorizedVecLeftMultiply(rm.fm, r), "AllSingleAttribute");
    return;
  }
  Matrix x = MaterializeMatrix(rm.fm);
  Matrix expected = Matrix::RowVector(r).Multiply(x);
  std::vector<double> xtr = FactorizedVecLeftMultiply(rm.fm, r);
  ASSERT_EQ(xtr.size(), static_cast<size_t>(rm.fm.num_cols()));
  for (int c = 0; c < rm.fm.num_cols(); ++c) {
    EXPECT_NEAR(xtr[static_cast<size_t>(c)], expected(0, static_cast<size_t>(c)), 1e-8);
  }
}

TEST_P(FmatrixOpsTest, RightMultiplyMatchesDense) {
  OpsParam p = GetParam();
  Rng rng(p.seed + 2000);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  std::vector<double> beta = testutil::RandomVector(&rng, rm.fm.num_cols());
  if (!rm.fm.AllSingleAttribute()) {
    EXPECT_DEATH(FactorizedVecRightMultiply(rm.fm, beta), "AllSingleAttribute");
    return;
  }
  Matrix x = MaterializeMatrix(rm.fm);
  Matrix expected = x.Multiply(Matrix::ColumnVector(beta));
  std::vector<double> xb = FactorizedVecRightMultiply(rm.fm, beta);
  ASSERT_EQ(static_cast<int64_t>(xb.size()), rm.fm.num_rows());
  for (int64_t r = 0; r < rm.fm.num_rows(); ++r) {
    EXPECT_NEAR(xb[static_cast<size_t>(r)], expected(static_cast<size_t>(r), 0), 1e-8);
  }
}

std::vector<OpsParam> MakeParams() {
  std::vector<OpsParam> params;
  for (int seed = 0; seed < 8; ++seed) {
    for (int h : {1, 2, 3}) {
      params.push_back(OpsParam{seed, h, 0});
    }
  }
  // Multi-attribute matrices: each operator refuses them (the engine sends
  // such fits to the dense backend; Materialize.MatchesFeatureRows covers
  // their materialisation).
  for (int seed = 100; seed < 104; ++seed) {
    params.push_back(OpsParam{seed, 2, 1});
    params.push_back(OpsParam{seed, 2, 2});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FmatrixOpsTest, ::testing::ValuesIn(MakeParams()));

TEST(WeightedColumnSum, MatchesDefinition) {
  FTree intercept = FTree::Singleton();
  FTree geo = FTree::FromPaths({{0, 0}, {0, 1}, {1, 2}}, 2);
  FactorizedMatrix fm;
  fm.AddTree(&intercept);
  fm.AddTree(&geo);
  FeatureColumn col;
  col.attr = AttrId{1, 0};  // district
  col.value_map = {2.0, 5.0};
  int c = fm.AddColumn(col);
  // d0 has 2 leaves, d1 has 1: WS = 2*2.0 + 1*5.0 = 9.
  EXPECT_DOUBLE_EQ(WeightedColumnSum(fm, c), 9.0);
}

TEST(Gram, InterceptCellCountsRows) {
  Rng rng(42);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  // Make column 0 (on the intercept attr) a true all-ones column.
  // MakeRandomMatrix randomises it, so rebuild a fresh matrix here.
  FactorizedMatrix fm;
  for (const auto& t : rm.trees) fm.AddTree(t.get());
  FeatureColumn ones;
  ones.attr = AttrId{0, 0};
  ones.value_map = {1.0};
  int c = fm.AddColumn(ones);
  DecomposedAggregates agg(&fm, rm.LocalPtrs());
  Matrix gram = FactorizedGram(fm, agg);
  EXPECT_DOUBLE_EQ(gram(static_cast<size_t>(c), static_cast<size_t>(c)),
                   static_cast<double>(fm.num_rows()));
}

}  // namespace
}  // namespace reptile
