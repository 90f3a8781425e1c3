#include "numeric/cg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "numeric/fault_injection.h"
#include "numeric/ichol.h"

namespace tsv::num {
namespace {

/// 1D Poisson matrix (tridiagonal [-1, 2, -1]) of size n — SPD.
SparseMatrix poisson1d(std::size_t n) {
  std::vector<Triplet> t;
  for (std::uint32_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i + 1 < n) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  return SparseMatrix::from_triplets(n, t);
}

/// 2D Poisson on an nx-by-nx grid (5-point stencil).
SparseMatrix poisson2d(std::size_t nx) {
  const std::size_t n = nx * nx;
  std::vector<Triplet> t;
  const auto id = [nx](std::size_t i, std::size_t j) {
    return static_cast<std::uint32_t>(i * nx + j);
  };
  for (std::size_t i = 0; i < nx; ++i) {
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
  }
  return SparseMatrix::from_triplets(n, t);
}

class CgPreconditionerTest
    : public ::testing::TestWithParam<Preconditioner> {};

TEST_P(CgPreconditionerTest, SolvesPoisson2D) {
  const SparseMatrix a = poisson2d(20);
  std::mt19937 rng(3);
  std::normal_distribution<double> dist;
  Vector x_true(a.size());
  for (auto& v : x_true) v = dist(rng);
  const Vector b = a.multiply(x_true);

  Vector x;
  CgOptions opt;
  opt.preconditioner = GetParam();
  opt.rel_tolerance = 1e-12;
  const CgResult res = conjugate_gradient(a, b, x, opt);
  ASSERT_TRUE(res.converged) << "residual " << res.relative_residual;
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(AllPreconditioners, CgPreconditionerTest,
                         ::testing::Values(Preconditioner::kNone,
                                           Preconditioner::kJacobi,
                                           Preconditioner::kSsor,
                                           Preconditioner::kIncompleteCholesky),
                         [](const auto& p) { return to_string(p.param); });

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const SparseMatrix a = poisson1d(10);
  Vector x(10, 5.0);  // nonzero initial guess
  const CgResult res = conjugate_gradient(a, Vector(10, 0.0), x);
  EXPECT_TRUE(res.converged);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, WarmStartConvergesFaster) {
  const SparseMatrix a = poisson2d(15);
  Vector b(a.size(), 1.0);
  Vector cold;
  CgOptions opt;
  opt.preconditioner = Preconditioner::kJacobi;
  const CgResult cold_res = conjugate_gradient(a, b, cold, opt);
  Vector warm = cold;  // exact solution as the initial guess
  const CgResult warm_res = conjugate_gradient(a, b, warm, opt);
  EXPECT_TRUE(warm_res.converged);
  EXPECT_LT(warm_res.iterations, cold_res.iterations);
}

TEST(Cg, IcPreconditionerCutsIterations) {
  const SparseMatrix a = poisson2d(40);
  const Vector b(a.size(), 1.0);
  Vector x0, x1;
  CgOptions plain;
  plain.preconditioner = Preconditioner::kNone;
  CgOptions ic;
  ic.preconditioner = Preconditioner::kIncompleteCholesky;
  const CgResult r_plain = conjugate_gradient(a, b, x0, plain);
  const CgResult r_ic = conjugate_gradient(a, b, x1, ic);
  ASSERT_TRUE(r_plain.converged);
  ASSERT_TRUE(r_ic.converged);
  EXPECT_EQ(r_ic.used, Preconditioner::kIncompleteCholesky);
  EXPECT_LT(static_cast<double>(r_ic.iterations),
            0.7 * static_cast<double>(r_plain.iterations));
}

TEST(Cg, ReportsNonConvergenceInsteadOfThrowing) {
  const SparseMatrix a = poisson2d(30);
  const Vector b(a.size(), 1.0);
  Vector x;
  CgOptions opt;
  opt.max_iterations = 2;
  opt.preconditioner = Preconditioner::kNone;
  const CgResult res = conjugate_gradient(a, b, x, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.relative_residual, 0.0);
  EXPECT_EQ(res.failure, CgFailure::kMaxIterations);
}

TEST(Cg, ClassifiesNonSpdAsBreakdown) {
  // Indefinite diagonal: the very first p' A p is negative.
  std::vector<Triplet> t{{0, 0, 1.0}, {1, 1, -1.0}, {2, 2, 1.0}};
  const SparseMatrix a = SparseMatrix::from_triplets(3, t);
  const Vector b{0.0, 1.0, 0.0};
  Vector x;
  CgOptions opt;
  opt.preconditioner = Preconditioner::kNone;
  const CgResult res = conjugate_gradient(a, b, x, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.failure, CgFailure::kBreakdown);
}

TEST(Cg, ClassifiesNanRhs) {
  const SparseMatrix a = poisson1d(8);
  Vector b(a.size(), 1.0);
  b[3] = std::numeric_limits<double>::quiet_NaN();
  Vector x;
  const CgResult res = conjugate_gradient(a, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.failure, CgFailure::kNanDetected);
  EXPECT_TRUE(std::isnan(res.relative_residual));
}

TEST(Cg, InjectedNanIterateIsDetectedNotLooped) {
  const SparseMatrix a = poisson2d(30);
  const Vector b(a.size(), 1.0);
  Vector x;
  CgOptions opt;
  opt.preconditioner = Preconditioner::kNone;
  fault::arm(fault::Site::kCgPoisonNan, 2);
  const CgResult res = conjugate_gradient(a, b, x, opt);
  fault::disarm_all();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.failure, CgFailure::kNanDetected);
  // Detection happens on the iteration right after the poison, not after
  // grinding through the whole max_iterations budget on NaNs.
  EXPECT_LE(res.iterations, 4u);
}

TEST(Cg, ClassifiesStagnation) {
  // Path-graph Laplacian: singular, nullspace = constant vector. With a
  // rhs whose mean is nonzero the system is inconsistent, so the residual
  // can never drop below its nullspace component — the best residual stops
  // improving and the stagnation window trips long before max_iterations.
  const std::size_t n = 50;
  std::vector<Triplet> t;
  for (std::uint32_t i = 0; i < n; ++i) {
    t.push_back({i, i, (i == 0 || i + 1 == n) ? 1.0 : 2.0});
    if (i + 1 < n) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(n, t);
  Vector b(n, 0.0);
  b[0] = 1.0;
  Vector x;
  CgOptions opt;
  opt.preconditioner = Preconditioner::kNone;
  opt.stagnation_window = 30;
  opt.max_iterations = 10000;
  const CgResult res = conjugate_gradient(a, b, x, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.failure, CgFailure::kStagnation);
  EXPECT_LT(res.iterations, opt.max_iterations);
}

TEST(Cg, FailureToStringIsStable) {
  EXPECT_STREQ(to_string(CgFailure::kNone).c_str(), "none");
  EXPECT_STREQ(to_string(CgFailure::kBreakdown).c_str(),
               "breakdown (matrix not SPD)");
  EXPECT_STREQ(to_string(CgFailure::kNanDetected).c_str(), "nan-detected");
}

TEST(IncompleteCholesky, ExactForTridiagonal) {
  // IC(0) on a tridiagonal SPD matrix is the exact Cholesky factorization,
  // so the preconditioned residual should converge in O(1) iterations.
  const SparseMatrix a = poisson1d(50);
  const Vector b(a.size(), 1.0);
  Vector x;
  CgOptions opt;
  opt.preconditioner = Preconditioner::kIncompleteCholesky;
  const CgResult res = conjugate_gradient(a, b, x, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 3u);
}

TEST(IncompleteCholesky, ApplyIsSpdInnerProduct) {
  const SparseMatrix a = poisson2d(8);
  const IncompleteCholesky ic(a);
  ASSERT_TRUE(ic.ok());
  std::mt19937 rng(5);
  std::normal_distribution<double> dist;
  for (int trial = 0; trial < 10; ++trial) {
    Vector r(a.size());
    for (auto& v : r) v = dist(rng);
    Vector z;
    ic.apply(r, z);
    EXPECT_GT(dot(r, z), 0.0);  // M^{-1} must be positive definite
  }
}

}  // namespace
}  // namespace tsv::num
