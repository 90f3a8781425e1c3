// End-to-end determinism and plumbing checks for the parallel evaluation
// engine: StressFramework::evaluate over a dense grid with the framework
// thread knob, compared against the exact serial path.

#include <gtest/gtest.h>

#include <cmath>

#include "core/framework.h"
#include "numeric/parallel.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const ana::InteractiveStressModel> shared_model() {
  static auto model = characterize(kS, {}, StageTwo::kSeries).model;
  return model;
}

std::shared_ptr<const RadialStressTable> shared_table() {
  const ana::SingleTsvModel model(kS, mat::ThermalLoad{});
  return std::make_shared<const RadialStressTable>(
      RadialStressTable::from_analytic(model, 30.0, 4096));
}

TEST(FrameworkParallel, DenseGridParallelMatchesSerial) {
  const tsvlib::Placement cluster = tsvlib::make_jittered_array(
      kS, 25, 1.0e-2, 10.0, 4242);
  const geo::Box roi = cluster.bounding_box().expanded(25.0);
  const geo::SampleGrid grid(roi, 80, 80);

  FrameworkOptions serial_opt;
  serial_opt.num_threads = 1;
  const StressFramework serial(cluster, shared_table(), shared_model(),
                               serial_opt);
  const StressResult want = serial.evaluate(grid);

  FrameworkOptions par_opt;
  par_opt.num_threads = 4;
  const StressFramework parallel(cluster, shared_table(), shared_model(),
                                 par_opt);
  const StressResult got = parallel.evaluate(grid);

  ASSERT_EQ(got.stress.size(), want.stress.size());
  for (std::size_t i = 0; i < want.stress.size(); ++i) {
    // The fused pass merges its chunk partials in chunk order, so the total
    // carries the merge-order tolerance (<= 1e-12 relative, see
    // interactive_stage.h).
    EXPECT_NEAR(got.stress[i].s11, want.stress[i].s11,
                1e-12 * std::max(1.0, std::abs(want.stress[i].s11)))
        << i;
    EXPECT_NEAR(got.stress[i].s22, want.stress[i].s22,
                1e-12 * std::max(1.0, std::abs(want.stress[i].s22)))
        << i;
    EXPECT_NEAR(got.stress[i].s12, want.stress[i].s12,
                1e-12 * std::max(1.0, std::abs(want.stress[i].s12)))
        << i;
  }
}

TEST(FrameworkParallel, StageTimingsStayPopulatedInParallelRuns) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 4, 4, 10.0);
  FrameworkOptions opt;
  opt.num_threads = 4;
  const StressFramework fw(arr, opt);
  const geo::SampleGrid grid(geo::Box::centered({15, 15}, 60, 60), 101, 101);
  const StressResult res = fw.evaluate(grid);
  // The fused grid pass reports its whole time as Stage II.
  EXPECT_EQ(res.stage1_seconds, 0.0);
  EXPECT_GT(res.stage2_seconds, 0.0);
  EXPECT_EQ(res.stress.size(), grid.size());
}

TEST(FrameworkParallel, FrameworkKnobPropagatesToBothStages) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  FrameworkOptions opt;
  opt.num_threads = 3;
  const StressFramework fw(pair, opt);
  EXPECT_EQ(fw.stage1().num_threads(), 3u);
  ASSERT_NE(fw.stage2(), nullptr);
  EXPECT_EQ(fw.stage2()->num_threads(), 3u);
}

TEST(FrameworkParallel, ZeroMeansHardwareConcurrency) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  FrameworkOptions opt;
  opt.num_threads = 0;
  const StressFramework fw(pair, opt);
  EXPECT_EQ(fw.stage1().num_threads(), 0u);
  EXPECT_EQ(num::resolve_thread_count(fw.stage1().num_threads()),
            num::hardware_thread_count());
  // And it still evaluates correctly.
  const StressResult res = fw.evaluate({{0.0, 2.0}, {3.0, 1.0}});
  EXPECT_TRUE(std::isfinite(res.stress[0].s11));
  EXPECT_TRUE(std::isfinite(res.stress[1].s11));
}

TEST(FrameworkParallel, LsOnlyParallelRunHasNoInteractivePart) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 10.0);
  FrameworkOptions opt;
  opt.enable_interactive = false;
  opt.num_threads = 4;
  const StressFramework fw(arr, opt);
  const geo::SampleGrid grid(geo::Box::centered({10, 10}, 40, 40), 41, 41);
  EXPECT_EQ(fw.stage2(), nullptr);
  const StressResult res = fw.evaluate(grid);
  EXPECT_EQ(res.stage2_seconds, 0.0);
  EXPECT_GT(res.stage1_seconds, 0.0);
}

}  // namespace
}  // namespace tsv::core
