#include "core/framework.h"

#include <chrono>
#include <type_traits>

#include "analytic/surrogate.h"
#include "numeric/parallel.h"

namespace tsv::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Characterization characterize(const tsvlib::TsvStructure& structure,
                              const mat::ThermalLoad& load, StageTwo stage2) {
  const ana::SingleTsvModel single(structure, load);
  Characterization ch;
  ch.table = std::make_shared<const RadialStressTable>(
      RadialStressTable::from_analytic(single, 30.0, 4096));
  if (stage2 == StageTwo::kOff) return ch;
  ch.model = std::make_shared<const ana::InteractiveStressModel>(
      std::make_shared<const ana::InclusionResponse>(structure),
      single.k_hat());
  if (stage2 == StageTwo::kSurrogate)
    ch.model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
        ana::PairSurrogate::fit(*ch.model)));
  return ch;
}

StressFramework::StressFramework(const tsvlib::Placement& placement,
                                 const FrameworkOptions& options,
                                 StageTwo stage2)
    : StressFramework(placement,
                      characterize(placement.structure(), mat::ThermalLoad{},
                                   stage2),
                      options) {}

StressFramework::StressFramework(const tsvlib::Placement& placement,
                                 Characterization ch,
                                 const FrameworkOptions& options)
    : StressFramework(placement, std::move(ch.table), std::move(ch.model),
                      options) {}

StressFramework::StressFramework(
    const tsvlib::Placement& placement,
    std::shared_ptr<const SingleTsvField> table,
    std::shared_ptr<const ana::InteractiveStressModel> model,
    const FrameworkOptions& options)
    : options_(options),
      stage1_(placement, std::move(table), options.influence_radius,
              options.num_threads) {
  TSV_REQUIRE(stage1_.table().coverage_radius() >= options_.influence_radius,
              "stress table must cover the influence radius");
  if (model != nullptr)
    stage2_ = std::make_unique<InteractiveStage>(
        placement, std::move(model), options_.influence_radius,
        options_.pair_pitch_cutoff, options_.num_threads);
}

template <typename Points>
StressResult StressFramework::evaluate_stages(
    const Points& points, const std::function<VictimRuns()>& runs) const {
  StressResult result;
  if constexpr (std::is_same_v<Points, geo::GridWindow>) {
    if (stage2_ != nullptr) {
      // One disc pass per TSV for both stages, timed as Stage II (see the
      // header comment).
      const auto t0 = Clock::now();
      result.stress = stage2_->evaluate_runs(points, runs(), &stage1_.table());
      result.stage2_seconds = seconds_since(t0);
      return result;
    }
  }
  const auto t0 = Clock::now();
  result.stress = stage1_.evaluate(points);
  result.stage1_seconds = seconds_since(t0);

  if (stage2_ != nullptr) {  // a point list: Stage II as its own pass
    const auto t1 = Clock::now();
    const std::vector<num::SymTensor2> interactive =
        stage2_->evaluate_runs(points, runs());
    num::parallel_for(
        result.stress.size(), options_.num_threads,
        [&](std::size_t i) { result.stress[i] += interactive[i]; });
    result.stage2_seconds = seconds_since(t1);
  }
  return result;
}

template StressResult StressFramework::evaluate_stages(
    const geo::GridWindow&, const std::function<VictimRuns()>&) const;

StressResult StressFramework::evaluate(
    const std::vector<geo::Point>& points) const {
  return evaluate_stages(points, [&] { return stage2_->victim_runs(); });
}

StressResult StressFramework::evaluate(const geo::SampleGrid& grid) const {
  return evaluate_stages(geo::GridWindow(grid),
                         [&] { return stage2_->victim_runs(); });
}

num::SymTensor2 StressFramework::stress_at(const geo::Point& p) const {
  num::SymTensor2 s = stage1_.stress_at(p);
  if (stage2_ != nullptr) s += stage2_->stress_at(p);
  return s;
}

}  // namespace tsv::core
