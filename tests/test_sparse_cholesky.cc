#include "numeric/sparse_cholesky.h"

#include <gtest/gtest.h>

#include <random>

#include "numeric/cg.h"
#include "numeric/rcm.h"

namespace tsv::num {
namespace {

SparseMatrix poisson2d(std::size_t nx) {
  const std::size_t n = nx * nx;
  std::vector<Triplet> t;
  const auto id = [nx](std::size_t i, std::size_t j) {
    return static_cast<std::uint32_t>(i * nx + j);
  };
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j < nx; ++j) {
      t.push_back({id(i, j), id(i, j), 4.0});
      if (i + 1 < nx) {
        t.push_back({id(i, j), id(i + 1, j), -1.0});
        t.push_back({id(i + 1, j), id(i, j), -1.0});
      }
      if (j + 1 < nx) {
        t.push_back({id(i, j), id(i, j + 1), -1.0});
        t.push_back({id(i, j + 1), id(i, j), -1.0});
      }
    }
  return SparseMatrix::from_triplets(n, t);
}

TEST(Rcm, ReducesBandwidthOnShuffledGrid) {
  // Shuffle a grid matrix; RCM must bring the bandwidth back down.
  const SparseMatrix a = poisson2d(16);
  std::vector<std::uint32_t> shuffle(a.size());
  for (std::uint32_t i = 0; i < a.size(); ++i) shuffle[i] = i;
  std::mt19937 rng(3);
  std::shuffle(shuffle.begin(), shuffle.end(), rng);
  const SparseMatrix shuffled = permute_symmetric(a, shuffle);
  EXPECT_GT(bandwidth(shuffled), 4 * bandwidth(a));
  const auto perm = reverse_cuthill_mckee(shuffled);
  const SparseMatrix restored = permute_symmetric(shuffled, perm);
  EXPECT_LE(bandwidth(restored), 2 * bandwidth(a));
}

TEST(Rcm, PermutationIsBijective) {
  const SparseMatrix a = poisson2d(9);
  const auto perm = reverse_cuthill_mckee(a);
  std::vector<bool> seen(a.size(), false);
  for (const auto p : perm) {
    ASSERT_LT(p, a.size());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Rcm, PermuteSymmetricPreservesValues) {
  const SparseMatrix a = poisson2d(5);
  const auto perm = reverse_cuthill_mckee(a);
  const SparseMatrix b = permute_symmetric(a, perm);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(perm[i], perm[j]));
}

class CholeskyOrderingTest : public ::testing::TestWithParam<bool> {};

TEST_P(CholeskyOrderingTest, SolvesPoissonExactly) {
  const SparseMatrix a = poisson2d(20);
  std::mt19937 rng(7);
  std::normal_distribution<double> dist;
  Vector x_true(a.size());
  for (auto& v : x_true) v = dist(rng);
  const Vector b = a.multiply(x_true);
  const SparseCholesky chol(a, GetParam());
  const Vector x = chol.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Orderings, CholeskyOrderingTest,
                         ::testing::Values(true, false),
                         [](const auto& p) {
                           return p.param ? "rcm" : "natural";
                         });

TEST(SparseCholesky, MatchesCgSolution) {
  const SparseMatrix a = poisson2d(25);
  Vector b(a.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = std::sin(0.1 * static_cast<double>(i));
  const SparseCholesky chol(a);
  const Vector x_direct = chol.solve(b);
  Vector x_cg;
  CgOptions opt;
  opt.rel_tolerance = 1e-13;
  const CgResult res = conjugate_gradient(a, b, x_cg, opt);
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(x_direct[i], x_cg[i], 1e-8);
}

TEST(SparseCholesky, RcmReducesFill) {
  const SparseMatrix a = poisson2d(24);
  std::vector<std::uint32_t> shuffle(a.size());
  for (std::uint32_t i = 0; i < a.size(); ++i) shuffle[i] = i;
  std::mt19937 rng(5);
  std::shuffle(shuffle.begin(), shuffle.end(), rng);
  const SparseMatrix shuffled = permute_symmetric(a, shuffle);
  const SparseCholesky with_rcm(shuffled, true);
  const SparseCholesky without(shuffled, false);
  EXPECT_LT(with_rcm.factor_nonzeros() * 2, without.factor_nonzeros());
}

TEST(SparseCholesky, IndefiniteMatrixThrows) {
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, {{0, 0, 1.0}, {0, 1, 3.0}, {1, 0, 3.0}, {1, 1, 1.0}});
  EXPECT_THROW(SparseCholesky{a}, std::runtime_error);
}

TEST(SparseCholesky, DiagonalMatrix) {
  const SparseMatrix a = SparseMatrix::from_triplets(
      3, {{0, 0, 4.0}, {1, 1, 9.0}, {2, 2, 16.0}});
  const SparseCholesky chol(a);
  const Vector x = chol.solve({4.0, 18.0, 48.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  EXPECT_NEAR(x[2], 3.0, 1e-14);
}

TEST(SparseCholesky, RandomSpdMatrices) {
  // Property sweep: A = B^T B + n I on random sparse B is SPD; the factor
  // must reproduce A x for random x.
  std::mt19937 rng(11);
  std::normal_distribution<double> dist;
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 30 + 7 * trial;
    std::vector<Triplet> t;
    for (std::uint32_t i = 0; i < n; ++i) {
      t.push_back({i, i, static_cast<double>(n)});
      for (int k = 0; k < 3; ++k) {
        const std::uint32_t j = rng() % n;
        const double v = dist(rng);
        if (i == j) continue;
        t.push_back({i, j, v});
        t.push_back({j, i, v});
      }
    }
    // Symmetrize into an SPD-ish matrix by diagonal dominance.
    const SparseMatrix a = SparseMatrix::from_triplets(n, t);
    Vector x_true(n);
    for (auto& v : x_true) v = dist(rng);
    const Vector b = a.multiply(x_true);
    const SparseCholesky chol(a);
    const Vector x = chol.solve(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace tsv::num
