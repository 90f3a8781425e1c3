#include "core/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tsv::core {
namespace {

const tsvlib::Placement kLoneTsv(tsvlib::TsvStructure::baseline_bcb(),
                                 {{0.0, 0.0}});

TEST(Metrics, ExtractMeasures) {
  const num::SymTensor2 t{30.0, -10.0, 5.0};
  EXPECT_DOUBLE_EQ(extract(StressMeasure::kSigmaXX, t), 30.0);
  EXPECT_DOUBLE_EQ(extract(StressMeasure::kSigmaYY, t), -10.0);
  EXPECT_DOUBLE_EQ(extract(StressMeasure::kSigmaXY, t), 5.0);
  EXPECT_DOUBLE_EQ(extract(StressMeasure::kVonMises, t),
                   num::von_mises_plane_stress(t));
  EXPECT_DOUBLE_EQ(extract(StressMeasure::kMaxTensile, t),
                   num::max_tensile(t));
}

TEST(Metrics, PerfectModelHasZeroError) {
  const std::vector<geo::Point> pts = {{1, 0}, {2, 0}, {10, 0}};
  const std::vector<num::SymTensor2> f = {
      {60, 0, 0}, {20, 0, 0}, {5, 0, 0}};
  const ErrorStats st =
      compare_fields(StressMeasure::kSigmaXX, pts, f, f, kLoneTsv);
  EXPECT_DOUBLE_EQ(st.avg_error, 0.0);
  EXPECT_DOUBLE_EQ(st.rate_thr10, 0.0);
  EXPECT_EQ(st.n_points, 3u);
}

TEST(Metrics, ThresholdBucketsAndRates) {
  // Three points: |golden| = 60 (in both thresholds, critical r=1),
  // 20 (thr10 only), 5 (neither).
  const std::vector<geo::Point> pts = {{1, 0}, {5, 0}, {10, 0}};
  const std::vector<num::SymTensor2> golden = {
      {60, 0, 0}, {20, 0, 0}, {5, 0, 0}};
  const std::vector<num::SymTensor2> model = {
      {66, 0, 0}, {22, 0, 0}, {10, 0, 0}};
  const ErrorStats st =
      compare_fields(StressMeasure::kSigmaXX, pts, model, golden, kLoneTsv);
  EXPECT_EQ(st.n_thr10, 2u);
  EXPECT_EQ(st.n_thr50, 1u);
  EXPECT_EQ(st.n_critical, 1u);
  EXPECT_NEAR(st.avg_error, (6.0 + 2.0 + 5.0) / 3.0, 1e-12);
  EXPECT_NEAR(st.avg_error_thr10, (6.0 + 2.0) / 2.0, 1e-12);
  EXPECT_NEAR(st.rate_thr10, 100.0 * (0.1 + 0.1) / 2.0, 1e-9);
  EXPECT_NEAR(st.avg_error_thr50, 6.0, 1e-12);
  EXPECT_NEAR(st.rate_thr50, 10.0, 1e-9);
  EXPECT_NEAR(st.critical_avg_error_thr50, 6.0, 1e-12);
  EXPECT_NEAR(st.critical_rate_thr50, 10.0, 1e-9);
}

TEST(Metrics, CriticalRegionIsNearTsvCenters) {
  // Point at r = 3.0 is critical (<= 3.3); r = 3.5 is not.
  const std::vector<geo::Point> pts = {{3.0, 0.0}, {3.5, 0.0}};
  const std::vector<num::SymTensor2> golden = {{100, 0, 0}, {100, 0, 0}};
  const std::vector<num::SymTensor2> model = {{90, 0, 0}, {90, 0, 0}};
  const ErrorStats st =
      compare_fields(StressMeasure::kSigmaXX, pts, model, golden, kLoneTsv);
  EXPECT_EQ(st.n_thr50, 2u);
  EXPECT_EQ(st.n_critical, 1u);
}

TEST(Metrics, NegativeGoldenCountsByMagnitude) {
  const std::vector<geo::Point> pts = {{1, 0}};
  const std::vector<num::SymTensor2> golden = {{-80, 0, 0}};
  const std::vector<num::SymTensor2> model = {{-60, 0, 0}};
  const ErrorStats st =
      compare_fields(StressMeasure::kSigmaXX, pts, model, golden, kLoneTsv);
  EXPECT_EQ(st.n_thr50, 1u);
  EXPECT_NEAR(st.avg_error_thr50, 20.0, 1e-12);
  EXPECT_NEAR(st.rate_thr50, 25.0, 1e-9);
}

TEST(Metrics, CustomOptions) {
  MetricsOptions opt;
  opt.threshold_low = 1.0;
  opt.threshold_high = 2.0;
  opt.critical_radius = 100.0;
  const std::vector<geo::Point> pts = {{50, 0}};
  const std::vector<num::SymTensor2> golden = {{3, 0, 0}};
  const std::vector<num::SymTensor2> model = {{4, 0, 0}};
  const ErrorStats st = compare_fields(StressMeasure::kSigmaXX, pts, model,
                                       golden, kLoneTsv, opt);
  EXPECT_EQ(st.n_thr10, 1u);
  EXPECT_EQ(st.n_thr50, 1u);
  EXPECT_EQ(st.n_critical, 1u);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<geo::Point> pts = {{0, 0}};
  const std::vector<num::SymTensor2> one(1), two(2);
  EXPECT_THROW(
      compare_fields(StressMeasure::kSigmaXX, pts, one, two, kLoneTsv),
      std::invalid_argument);
}

TEST(Metrics, MaxAbsError) {
  const std::vector<num::SymTensor2> a = {{1, 0, 0}, {5, 0, 0}};
  const std::vector<num::SymTensor2> b = {{2, 0, 0}, {1, 0, 0}};
  EXPECT_DOUBLE_EQ(max_abs_error(StressMeasure::kSigmaXX, a, b), 4.0);
}

}  // namespace
}  // namespace tsv::core
