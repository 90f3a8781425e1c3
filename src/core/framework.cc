#include "core/framework.h"

#include <chrono>

#include "numeric/parallel.h"

namespace tsv::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

SuperpositionOptions with_threads(SuperpositionOptions opt,
                                  std::size_t num_threads) {
  if (num_threads != 1) opt.num_threads = num_threads;
  return opt;
}

}  // namespace

StressFramework::StressFramework(const tsvlib::Placement& placement,
                                 const FrameworkOptions& options)
    : StressFramework(placement, nullptr, options) {}

StressFramework::StressFramework(
    const tsvlib::Placement& placement,
    std::shared_ptr<const ana::InteractiveStressModel> model,
    const FrameworkOptions& options)
    : StressFramework(
          placement,
          RadialStressTable::from_analytic(
              ana::SingleTsvModel(placement.structure(), options.load),
              options.table_radius, options.table_samples),
          std::move(model), options) {}

StressFramework::StressFramework(
    const tsvlib::Placement& placement, RadialStressTable table,
    std::shared_ptr<const ana::InteractiveStressModel> model,
    const FrameworkOptions& options)
    : StressFramework(
          placement,
          std::make_shared<const RadialStressTable>(std::move(table)),
          std::move(model), options) {}

StressFramework::StressFramework(
    const tsvlib::Placement& placement,
    std::shared_ptr<const SingleTsvField> table,
    std::shared_ptr<const ana::InteractiveStressModel> model,
    const FrameworkOptions& options)
    : options_(options),
      single_(placement.structure(), options.load),
      stage1_(placement, std::move(table),
              with_threads(options.stage1, options.num_threads)),
      model_(std::move(model)) {
  if (options_.num_threads != 1) {
    options_.stage1.num_threads = options_.num_threads;
    options_.stage2.num_threads = options_.num_threads;
  }
  TSV_REQUIRE(stage1_.table().coverage_radius() >=
                  options_.stage1.influence_radius,
              "stress table must cover the influence radius");
  if (options_.enable_interactive) {
    if (model_ == nullptr) {
      model_ = std::make_shared<const ana::InteractiveStressModel>(
          placement.structure(), options_.load, options_.characterization);
    }
    stage2_ = std::make_unique<InteractiveStage>(placement, model_,
                                                 options_.stage2);
  }
}

StressResult StressFramework::evaluate(
    const std::vector<geo::Point>& points) const {
  StressResult result;
  const auto t0 = Clock::now();
  result.stress = stage1_.evaluate(points);
  result.stage1_seconds = seconds_since(t0);

  if (stage2_ != nullptr) {
    const auto t1 = Clock::now();
    result.interactive = stage2_->evaluate(points);
    num::parallel_for(points.size(), options_.stage2.num_threads,
                      [&](std::size_t i) {
                        result.stress[i] += result.interactive[i];
                      });
    result.stage2_seconds = seconds_since(t1);
  }
  return result;
}

StressResult StressFramework::evaluate(const geo::SampleGrid& grid) const {
  return evaluate(grid.points());
}

num::SymTensor2 StressFramework::stress_at(const geo::Point& p) const {
  num::SymTensor2 s = stage1_.stress_at(p);
  if (stage2_ != nullptr) s += stage2_->stress_at(p);
  return s;
}

}  // namespace tsv::core
