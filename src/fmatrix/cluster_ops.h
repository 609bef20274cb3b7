// Per-cluster factorised matrix operations (paper Appendix F,
// Algorithms 5-7).
//
// Clusters of the multi-level model are the combinations of every attribute
// except the drilled (intra) one; with the drilled hierarchy last in the
// attribute order they are contiguous row ranges, enumerated here without
// materialising anything. Within a cluster all inter-cluster columns are
// constant, so a cluster's gram / left / right products reduce to the
// cluster size, the intra-column child sums, and O(q^2) scalar work. Every
// column must bind a single attribute; multi-attribute features (Appendix H)
// take the dense backend.

#ifndef REPTILE_FMATRIX_CLUSTER_OPS_H_
#define REPTILE_FMATRIX_CLUSTER_OPS_H_

#include <functional>
#include <memory>
#include <vector>

#include "factor/frep.h"
#include "linalg/matrix.h"

namespace reptile {

/// Enumerates clusters in row order, exposing the constant (inter) attribute
/// codes and the intra attribute's child node range.
class ClusterIterator {
 public:
  explicit ClusterIterator(const FactorizedMatrix& fm);

  /// Positions at the first cluster; false when the matrix is empty.
  bool Start();

  /// Advances; false at the end.
  bool Next();

  int64_t cluster() const { return cluster_; }
  int64_t row_begin() const { return row_begin_; }

  /// Number of rows (= children of the intra attribute) in this cluster.
  int64_t num_children() const { return num_children_; }

  /// First child node index at the last tree's deepest level.
  int64_t child_node_begin() const { return child_begin_; }

  /// Current value code of any non-intra attribute.
  int32_t inter_code(int flat_attr) const { return codes_[flat_attr]; }
  const std::vector<int32_t>& codes() const { return codes_; }

  /// Flat attributes whose code changed in the last Start()/Next() — the
  /// adjacency the incremental per-cluster operators (Algorithm 5) exploit.
  const std::vector<int>& changed_attrs() const { return changed_attrs_; }

 private:
  const FactorizedMatrix* fm_;
  std::vector<FTree::Cursor> prefix_cursors_;  // trees 0 .. h-2, deepest level
  std::unique_ptr<FTree::Cursor> parent_cursor_;  // last tree at depth-2; null if depth==1
  std::vector<int> attr_offset_;
  std::vector<int32_t> codes_;
  std::vector<int> changed_attrs_;
  int64_t cluster_ = -1;
  int64_t row_begin_ = 0;
  int64_t num_children_ = 0;
  int64_t child_begin_ = 0;

  void RefreshChildRange();
  void RefreshTreeCodes(int tree, int from_level);
};

/// Per-cluster outputs delivered to the visitor of ForEachCluster.
struct ClusterData {
  int64_t cluster = 0;
  int64_t row_begin = 0;
  int64_t size = 0;
  const Matrix* gram = nullptr;             // q x q: Z_i^T Z_i over `cols`
  const std::vector<double>* ztr = nullptr; // q: Z_i^T r_i (only when r given)
};

/// Streams every cluster's gram matrix over the selected columns — and, when
/// `r` (length n) is provided, the per-cluster product Z_i^T r_i — to `emit`.
/// This fuses Algorithm 5 (cluster gram) and Algorithm 6 (cluster left
/// multiplication): the EM expectation step consumes both per cluster.
void ForEachClusterGram(const FactorizedMatrix& fm, const std::vector<int>& cols,
                        const std::vector<double>* r,
                        const std::function<void(const ClusterData&)>& emit);

/// Per-cluster left multiplication only (Algorithm 6): streams
/// Z_i^T r_i per cluster without computing the gram, for callers that need
/// just the projections.
void ForEachClusterLeft(const FactorizedMatrix& fm, const std::vector<int>& cols,
                        const std::vector<double>& r,
                        const std::function<void(const ClusterData&)>& emit);

/// Per-cluster right multiplication (Algorithm 7): writes
/// out[row] = X_i(cols) · b_i for every row, where b row i of `b` (G x q)
/// holds cluster i's coefficients. `out` must have length n.
void ClusterRightMultiply(const FactorizedMatrix& fm, const std::vector<int>& cols,
                          const Matrix& b, std::vector<double>* out);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_CLUSTER_OPS_H_
