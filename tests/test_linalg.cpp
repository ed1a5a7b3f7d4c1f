// Unit and property tests for the dense linear algebra layer: matrices,
// LU (real + complex), Cholesky, Schur complements.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>

#include "linalg/cholesky.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/schur.h"
#include "support/random.h"

namespace pardpp {
namespace {

TEST(Matrix, IdentityAndDiagonal) {
  const auto eye = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(eye(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
  const std::vector<double> d = {1.0, 2.0, 3.0};
  const auto diag = Matrix::diagonal(d);
  EXPECT_DOUBLE_EQ(diag(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(diag(1, 0), 0.0);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 3.0;
  a(1, 1) = 4.0;
  const Matrix b = a * 2.0;
  EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
  const Matrix c = b - a;
  EXPECT_DOUBLE_EQ(c(0, 1), 2.0);
  const Matrix d = a + a;
  EXPECT_DOUBLE_EQ(d(1, 0), 6.0);
}

TEST(Matrix, ProductMatchesHandComputation) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = v++;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 2; ++j) b(i, j) = v++;
  const Matrix c = a * b;
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_DOUBLE_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(Matrix, GatherAndPrincipal) {
  RandomStream rng(5);
  const Matrix m = random_gaussian(5, 5, rng);
  const std::vector<int> idx = {3, 1};
  const Matrix sub = m.principal(idx);
  EXPECT_DOUBLE_EQ(sub(0, 0), m(3, 3));
  EXPECT_DOUBLE_EQ(sub(0, 1), m(3, 1));
  EXPECT_DOUBLE_EQ(sub(1, 0), m(1, 3));
}

TEST(Matrix, TransposeInvolution) {
  RandomStream rng(6);
  const Matrix m = random_gaussian(4, 7, rng);
  const Matrix mtt = m.transpose().transpose();
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 7; ++j) EXPECT_DOUBLE_EQ(mtt(i, j), m(i, j));
}

TEST(Matrix, SymmetryPredicates) {
  RandomStream rng(7);
  const Matrix s = random_psd(5, 5, rng);
  EXPECT_TRUE(s.is_symmetric());
  Matrix a = s;
  a(0, 1) += 1.0;
  EXPECT_FALSE(a.is_symmetric());
  EXPECT_TRUE(a.symmetric_part().is_symmetric());
}

TEST(Matrix, ApplyMatchesProduct) {
  RandomStream rng(8);
  const Matrix m = random_gaussian(4, 4, rng);
  std::vector<double> x = {1.0, -2.0, 0.5, 3.0};
  const auto y = m.apply(x);
  for (std::size_t i = 0; i < 4; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 4; ++j) expect += m(i, j) * x[j];
    EXPECT_NEAR(y[i], expect, 1e-12);
  }
}

TEST(Matrix, MultiplyTransposedBMatchesNaive) {
  RandomStream rng(771001);
  const Matrix a = random_gaussian(37, 19, rng);
  const Matrix b = random_gaussian(53, 19, rng);
  const Matrix blocked = multiply_transposed_b(a, b);
  const Matrix naive = a * b.transpose();
  ASSERT_EQ(blocked.rows(), naive.rows());
  ASSERT_EQ(blocked.cols(), naive.cols());
  for (std::size_t i = 0; i < naive.rows(); ++i)
    for (std::size_t j = 0; j < naive.cols(); ++j)
      EXPECT_NEAR(blocked(i, j), naive(i, j), 1e-12);
}

TEST(Matrix, MultiplyTransposedBShapeMismatchThrows) {
  const Matrix a(3, 4);
  const Matrix b(5, 3);
  EXPECT_THROW((void)multiply_transposed_b(a, b), InvalidArgument);
}

TEST(Matrix, SymRankKUpdateMatchesNaive) {
  RandomStream rng(771002);
  const std::size_t r = 21;
  const std::size_t n = 33;
  const Matrix y = random_gaussian(r, n, rng);
  Matrix c = random_psd(n, n, rng, 1e-3);
  Matrix want = c;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < r; ++p) acc += y(p, i) * y(p, j);
      want(i, j) -= acc;
    }
  sym_rank_k_update(c, -1.0, y.flat().data(), r, n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(c(i, j), want(i, j), 1e-10) << i << "," << j;
  // The result is exactly symmetric (upper triangle mirrored).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(c(i, j), c(j, i));
}

TEST(IncrementalCholesky, CommittedPrefixSurvivesTruncate) {
  RandomStream rng(771003);
  const Matrix a = random_psd(8, 8, rng, 1e-3);
  IncrementalCholesky chol(8);
  double max_diag = 0.0;
  for (std::size_t i = 0; i < 8; ++i)
    max_diag = std::max(max_diag, std::abs(a(i, i)));
  chol.clear(max_diag);
  std::vector<double> row;
  const auto append_row = [&](std::size_t r) {
    row.resize(r + 1);
    for (std::size_t c = 0; c <= r; ++c) row[c] = a(r, c);
    ASSERT_TRUE(chol.append(row));
  };
  append_row(0);
  append_row(1);
  append_row(2);
  chol.commit_prefix();
  EXPECT_EQ(chol.committed_size(), 3u);
  const double committed_log_det = chol.log_det();
  // Speculative rows beyond the committed prefix pop back off...
  append_row(3);
  append_row(4);
  chol.truncate();
  EXPECT_EQ(chol.size(), 3u);
  EXPECT_DOUBLE_EQ(chol.log_det(), committed_log_det);
  // ...and popping below the committed floor is rejected.
  EXPECT_THROW(chol.truncate(2), InvalidArgument);
  // clear() resets the floor.
  chol.clear(max_diag);
  EXPECT_EQ(chol.committed_size(), 0u);
  append_row(0);
  chol.truncate(0);
  EXPECT_EQ(chol.size(), 0u);
}

TEST(Schur, ConditionEnsembleSymIntoMatchesFromScratch) {
  RandomStream rng(771004);
  const Matrix l = random_psd(9, 9, rng, 1e-3);
  const std::vector<int> t = {5, 1, 7};
  const auto want = condition_ensemble(l, t, /*symmetric=*/true);
  IncrementalCholesky chol;
  std::vector<double> y;
  std::vector<int> keep;
  Matrix reduced;
  condition_ensemble_sym_into(l, t, chol, y, keep, reduced);
  ASSERT_EQ(reduced.rows(), want.reduced.rows());
  for (std::size_t i = 0; i < reduced.rows(); ++i)
    for (std::size_t j = 0; j < reduced.cols(); ++j)
      EXPECT_NEAR(reduced(i, j), want.reduced(i, j), 1e-10);
  EXPECT_NEAR(chol.log_det(), want.log_abs_det_elim, 1e-10);
}

TEST(Schur, ConditionEnsembleSymIntoRejectsNullEvent) {
  // A rank-1 ensemble cannot be conditioned on two elements.
  Matrix l(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) l(i, j) = 1.0;
  const std::vector<int> t = {0, 1};
  IncrementalCholesky chol;
  std::vector<double> y;
  std::vector<int> keep;
  Matrix reduced;
  EXPECT_THROW(condition_ensemble_sym_into(l, t, chol, y, keep, reduced),
               NumericalError);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW((void)(a * b), InvalidArgument);
  EXPECT_THROW(a += b, InvalidArgument);
}

// ---- LU ----

class LuRandomTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LuRandomTest, SolveAndDeterminant) {
  const auto [n, seed] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed));
  Matrix a = random_gaussian(static_cast<std::size_t>(n),
                             static_cast<std::size_t>(n), rng);
  for (int i = 0; i < n; ++i)
    a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 3.0;
  const auto lu = lu_factor(a);
  ASSERT_FALSE(lu.singular());
  // Solve against a known RHS.
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x_true[static_cast<std::size_t>(i)] = rng.normal();
  const auto b = a.apply(x_true);
  const auto x = lu.solve(b);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-8);
  // Inverse times A = I.
  const Matrix prod = lu.inverse() * a;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(prod(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
                  i == j ? 1.0 : 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, LuRandomTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8,
                                                              13, 21),
                                            ::testing::Values(1, 2, 3)));

TEST(Lu, DeterminantMatchesCofactor2x2) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(0, 1) = 7.0;
  a(1, 0) = 2.0;
  a(1, 1) = 5.0;
  const auto sld = signed_log_det(a);
  EXPECT_EQ(sld.sign, 1);
  EXPECT_NEAR(std::exp(sld.log_abs), 1.0, 1e-12);
  EXPECT_NEAR(det_small(a), 1.0, 1e-12);
}

TEST(Lu, NegativeDeterminantSign) {
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;  // permutation matrix, det = -1
  const auto sld = signed_log_det(a);
  EXPECT_EQ(sld.sign, -1);
  EXPECT_NEAR(sld.log_abs, 0.0, 1e-12);
}

TEST(Lu, SingularDetection) {
  Matrix a(3, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    a(0, j) = 1.0;
    a(1, j) = 2.0;  // row 1 = 2 * row 0
    a(2, j) = static_cast<double>(j);
  }
  const auto lu = lu_factor(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_EQ(signed_log_det(a).sign, 0);
  std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)lu.solve(b), NumericalError);
}

TEST(Lu, ComplexDeterminantOnUnitCircle) {
  // A = diag(1 + z, 1 - z) with |z| = 1: det = 1 - z^2.
  const std::complex<double> z = std::polar(1.0, 0.7);
  CMatrix a(2, 2);
  a(0, 0) = 1.0 + z;
  a(1, 1) = 1.0 - z;
  const auto lu = lu_factor(a);
  const auto det = lu.log_det();
  const std::complex<double> expected = 1.0 - z * z;
  EXPECT_NEAR(det.log_abs, std::log(std::abs(expected)), 1e-12);
  EXPECT_NEAR(std::arg(det.phase), std::arg(expected), 1e-12);
}

TEST(Lu, ComplexSolve) {
  RandomStream rng(9);
  CMatrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      a(i, j) = {rng.normal(), rng.normal()};
  for (std::size_t i = 0; i < 3; ++i) a(i, i) += 4.0;
  std::vector<std::complex<double>> x_true = {
      {1.0, 2.0}, {-1.0, 0.5}, {0.0, -3.0}};
  const auto b = a.apply(x_true);
  const auto lu = lu_factor(a);
  const auto x = lu.solve(b);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_LT(std::abs(x[i] - x_true[i]), 1e-9);
}

// ---- Cholesky ----

class CholeskyRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomTest, FactorSolveLogDet) {
  RandomStream rng(static_cast<std::uint64_t>(GetParam()));
  const Matrix a = random_psd(6, 6, rng, 1e-3);
  const auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  // L L^T = A.
  const Matrix recon = chol->lower() * chol->lower().transpose();
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-9);
  // log det agrees with LU.
  EXPECT_NEAR(chol->log_det(), signed_log_det(a).log_abs, 1e-8);
  // Solve.
  std::vector<double> x_true = {1, 2, 3, 4, 5, 6};
  const auto b = a.apply(x_true);
  const auto x = chol->solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::identity(3);
  a(2, 2) = -1.0;
  EXPECT_FALSE(cholesky(a).has_value());
  EXPECT_THROW((void)cholesky_or_throw(a), NumericalError);
  EXPECT_FALSE(is_psd(a));
}

TEST(Cholesky, PsdPredicates) {
  RandomStream rng(21);
  EXPECT_TRUE(is_psd(random_psd(6, 3, rng)));  // rank-deficient PSD
  const Matrix l = random_npsd(6, rng, 0.8);
  EXPECT_TRUE(is_npsd(l));
  EXPECT_FALSE(l.is_symmetric());
  Matrix bad = Matrix::identity(3);
  bad(0, 0) = -2.0;
  EXPECT_FALSE(is_npsd(bad));
}

// ---- Schur complements ----

class SchurTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SchurTest, DeterminantChainRule) {
  const auto [seed, symmetric] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed));
  const Matrix l = symmetric ? random_psd(7, 7, rng, 1e-2)
                             : random_npsd(7, rng, 0.6);
  const std::vector<int> t = {1, 4, 6};
  const auto cond = condition_ensemble(l, t, symmetric);
  // det(L) = det(L_T) * det(Schur complement).
  const auto full = signed_log_det(l);
  const auto reduced = signed_log_det(cond.reduced);
  ASSERT_NE(full.sign, 0);
  EXPECT_NEAR(full.log_abs, reduced.log_abs + cond.log_abs_det_elim, 1e-7);
  EXPECT_EQ(full.sign, reduced.sign * cond.det_sign_elim);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSymmetry, SchurTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

TEST(Schur, ComplementIndices) {
  const std::vector<int> t = {1, 3};
  const auto keep = complement_indices(5, t);
  EXPECT_EQ(keep, (std::vector<int>{0, 2, 4}));
  EXPECT_THROW((void)complement_indices(3, std::vector<int>{3}),
               InvalidArgument);
  EXPECT_THROW((void)complement_indices(5, std::vector<int>{1, 1}),
               InvalidArgument);
}

TEST(Schur, EmptyEliminationIsGather) {
  RandomStream rng(30);
  const Matrix l = random_psd(4, 4, rng);
  const auto result = condition_ensemble(l, {}, true);
  EXPECT_EQ(result.reduced.rows(), 4u);
  EXPECT_DOUBLE_EQ(result.log_abs_det_elim, 0.0);
}

TEST(Schur, ConditioningOnNullEventThrows) {
  // Rank-1 PSD matrix: conditioning on two elements is a null event.
  Matrix l(2, 2);
  l(0, 0) = 1.0;
  l(0, 1) = 1.0;
  l(1, 0) = 1.0;
  l(1, 1) = 1.0;
  const std::vector<int> t = {0, 1};
  EXPECT_THROW((void)schur_complement(l, {}, t, true), NumericalError);
}

// ---- Factories ----

TEST(Factory, RbfKernelIsPsd) {
  RandomStream rng(31);
  const Matrix pts = random_points(10, 2, rng);
  const Matrix k = rbf_kernel(pts, 0.4);
  EXPECT_TRUE(is_psd(k));
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(k(i, i), 1.0);
}

TEST(Factory, OrthonormalColumns) {
  RandomStream rng(32);
  const Matrix v = random_orthonormal(8, 4, rng);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < 8; ++i) dot += v(i, a) * v(i, b);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Factory, KernelWithSpectrum) {
  RandomStream rng(33);
  const std::vector<double> spectrum = {0.1, 0.5, 0.9, 2.0};
  const Matrix k = kernel_with_spectrum(spectrum, rng);
  EXPECT_TRUE(k.is_symmetric());
  EXPECT_NEAR(k.trace(), 3.5, 1e-9);
}

TEST(Factory, RandomPartitionCoversAllParts) {
  RandomStream rng(34);
  const auto part = random_partition(20, 3, rng);
  std::vector<int> counts(3, 0);
  for (const int p : part) ++counts[static_cast<std::size_t>(p)];
  for (const int c : counts) EXPECT_GE(c, 1);
}

// ---- incremental Cholesky (shared-prefix batch queries) ----

TEST(IncrementalCholesky, AppendMatchesFromScratch) {
  RandomStream rng(41);
  const Matrix a = random_psd(7, 7, rng, 1e-2);
  IncrementalCholesky inc(7);
  std::vector<double> row;
  for (std::size_t r = 0; r < 7; ++r) {
    row.resize(r + 1);
    for (std::size_t c = 0; c <= r; ++c) row[c] = a(r, c);
    ASSERT_TRUE(inc.append(row));
  }
  const auto full = cholesky(a);
  ASSERT_TRUE(full.has_value());
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      EXPECT_DOUBLE_EQ(inc.entry(i, j), full->lower()(i, j));
  EXPECT_NEAR(inc.log_det(), full->log_det(), 1e-12);
}

TEST(IncrementalCholesky, TruncateRestoresSharedPrefix) {
  RandomStream rng(42);
  const Matrix a = random_psd(6, 6, rng, 1e-2);
  IncrementalCholesky inc(6);
  std::vector<double> row;
  const auto append_row = [&](const Matrix& m, std::size_t r,
                              std::span<const int> idx) {
    row.resize(r + 1);
    for (std::size_t c = 0; c <= r; ++c)
      row[c] = m(static_cast<std::size_t>(idx[r]),
                 static_cast<std::size_t>(idx[c]));
    return inc.append(row);
  };
  // Factor prefix {0, 2} then extend to {0, 2, 4}; truncate back and
  // extend to {0, 2, 5} — the prefix factor must be reused exactly.
  const std::vector<int> first = {0, 2, 4};
  for (std::size_t r = 0; r < 3; ++r) ASSERT_TRUE(append_row(a, r, first));
  const double log_det_first = inc.log_det();
  inc.truncate(2);
  const std::vector<int> second = {0, 2, 5};
  ASSERT_TRUE(append_row(a, 2, second));
  const auto direct_first = cholesky(a.principal(first));
  const auto direct_second = cholesky(a.principal(second));
  ASSERT_TRUE(direct_first.has_value() && direct_second.has_value());
  EXPECT_NEAR(log_det_first, direct_first->log_det(), 1e-12);
  EXPECT_NEAR(inc.log_det(), direct_second->log_det(), 1e-12);
}

TEST(IncrementalCholesky, RejectsNonPositiveDefiniteExtension) {
  // Appending a duplicate row makes the extension singular; the factor
  // must stay usable at its previous size.
  RandomStream rng(43);
  const Matrix a = random_psd(5, 5, rng, 1e-2);
  IncrementalCholesky inc;
  std::vector<double> row = {a(1, 1)};
  ASSERT_TRUE(inc.append(row));
  row = {a(1, 1), a(1, 1)};  // the same element twice: rank 1 block
  EXPECT_FALSE(inc.append(row));
  EXPECT_EQ(inc.size(), 1u);
  row = {a(3, 1), a(3, 3)};
  EXPECT_TRUE(inc.append(row));
  const std::vector<int> idx = {1, 3};
  const auto direct = cholesky(a.principal(idx));
  ASSERT_TRUE(direct.has_value());
  EXPECT_NEAR(inc.log_det(), direct->log_det(), 1e-12);
}

TEST(SchurComplement, IncrementalMatchesFromScratch) {
  RandomStream rng(46);
  const Matrix m = random_psd(9, 9, rng, 1e-2);
  const std::vector<int> elim = {1, 4, 7};
  const auto keep = complement_indices(9, elim);
  IncrementalCholesky chol(3);
  std::vector<double> row;
  for (std::size_t r = 0; r < elim.size(); ++r) {
    row.resize(r + 1);
    for (std::size_t c = 0; c <= r; ++c)
      row[c] = m(static_cast<std::size_t>(elim[r]),
                 static_cast<std::size_t>(elim[c]));
    ASSERT_TRUE(chol.append(row));
  }
  std::vector<double> scratch;
  Matrix reduced;
  schur_complement_sym_into(m, keep, elim, chol, scratch, reduced);
  const auto reference = schur_complement(m, keep, elim, /*symmetric=*/true);
  ASSERT_EQ(reduced.rows(), reference.reduced.rows());
  for (std::size_t i = 0; i < reduced.rows(); ++i)
    for (std::size_t j = 0; j < reduced.cols(); ++j)
      EXPECT_NEAR(reduced(i, j), reference.reduced(i, j), 1e-11);
  EXPECT_NEAR(chol.log_det(), reference.log_abs_det_elim, 1e-11);
}

}  // namespace
}  // namespace pardpp
