// Factorised left multiplication r^T X (paper Section 4.2.2, Algorithm 3).
//
// r is a dense length-n vector (n = virtual rows of X). Each column of X is a
// block-repetitive pattern fully described by the decomposed aggregates:
// within one repetition, each node value occupies lc(node) * suffix
// consecutive rows. Prefix sums over r turn every block into an O(1) range
// sum, giving total cost O(n) — optimal, since the input r is itself of
// length n. Every column must bind a single attribute.

#ifndef REPTILE_FMATRIX_LEFT_MULT_H_
#define REPTILE_FMATRIX_LEFT_MULT_H_

#include <vector>

#include "factor/frep.h"

namespace reptile {

/// Computes X^T r for a length-n vector r, returning an m-vector. This is
/// the EM inner-loop form.
std::vector<double> FactorizedVecLeftMultiply(const FactorizedMatrix& fm,
                                              const std::vector<double>& r);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_LEFT_MULT_H_
