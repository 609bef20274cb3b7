// Factorised right multiplication X · beta (paper Section 4.2.2, Algorithm 4).
//
// The output is an n-vector with no redundancy to exploit, so it is
// materialised; the optimization is on the input side. Every column binds one
// attribute of one tree, so a row's value is a sum of per-tree terms, each
// fixed by that tree's leaf. One cursor pass per tree computes its
// leaf-contribution block (sharing the partial sums of common ancestors), and
// the blocks combine by the rows' nested repetition: one addition per output
// value, independent of the number of columns.

#ifndef REPTILE_FMATRIX_RIGHT_MULT_H_
#define REPTILE_FMATRIX_RIGHT_MULT_H_

#include <vector>

#include "factor/frep.h"

namespace reptile {

/// Computes X · beta for a coefficient vector, returning an n-vector. This
/// is the EM inner-loop form.
std::vector<double> FactorizedVecRightMultiply(const FactorizedMatrix& fm,
                                               const std::vector<double>& beta);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_RIGHT_MULT_H_
