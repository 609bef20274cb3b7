#include "fmatrix/left_mult.h"

#include "common/check.h"

namespace reptile {

std::vector<double> FactorizedVecLeftMultiply(const FactorizedMatrix& fm,
                                              const std::vector<double>& r) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  REPTILE_CHECK_EQ(static_cast<int64_t>(r.size()), fm.num_rows());
  // prefix[i] is the sum of r[0..i): every block of a column is a range sum.
  std::vector<double> prefix(r.size() + 1, 0.0);
  for (size_t i = 0; i < r.size(); ++i) prefix[i + 1] = prefix[i] + r[i];
  std::vector<double> out(fm.num_cols(), 0.0);
  for (int c = 0; c < fm.num_cols(); ++c) {
    const FeatureColumn& col = fm.column(c);
    const FTree& tree = fm.tree(col.attr.hierarchy);
    const FTree::Level& level = tree.level(col.attr.level);
    int64_t suffix = fm.SuffixLeaves(col.attr.hierarchy);
    int64_t repeats = fm.PrefixLeaves(col.attr.hierarchy);
    double acc = 0.0;
    int64_t pos = 0;
    for (int64_t rep = 0; rep < repeats; ++rep) {
      for (int64_t node = 0; node < level.size(); ++node) {
        int64_t len = level.leaf_count[node] * suffix;
        acc += (prefix[pos + len] - prefix[pos]) * col.ValueForCode(level.value[node]);
        pos += len;
      }
    }
    REPTILE_DCHECK(pos == fm.num_rows());
    out[static_cast<size_t>(c)] = acc;
  }
  return out;
}

}  // namespace reptile
