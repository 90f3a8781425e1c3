// Reliability screening: rank TSV pairs by the von Mises stress between
// them and flag pairs whose interactive stress changes the verdict — the
// paper's motivating use case (LS can misjudge reliability when TSVs are
// close; Sec. 1 and Table 1).
//
//   build/examples/reliability_screening [vm_limit_mpa]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/framework.h"
#include "tsv/generators.h"

int main(int argc, char** argv) {
  using namespace tsv;
  const double vm_limit = argc > 1 ? std::atof(argv[1]) : 110.0;

  // A deliberately uneven placement: a dense cluster plus scattered TSVs.
  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  tsvlib::Placement placement(structure);
  const tsvlib::Placement cluster = tsvlib::make_array(structure, 3, 3, 8.0);
  const tsvlib::Placement scattered = tsvlib::make_random(
      structure, 12, geo::Box{{30.0, 0.0}, {90.0, 60.0}}, 14.0, 99);
  for (const auto& c : cluster.centers()) placement.add(c);
  for (const auto& c : scattered.centers()) placement.add(c);
  placement.validate_no_overlap();

  const core::StressFramework ls(placement, {}, core::StageTwo::kOff);
  const core::StressFramework pf(placement);

  std::printf("screening %zu TSVs against a %g MPa von Mises limit\n",
              placement.size(), vm_limit);
  std::printf("(probe: midpoint and quarter points of every pair closer "
              "than 25 um)\n\n");

  struct PairRisk {
    std::size_t a, b;
    double pitch;
    double vm_ls, vm_pf;
  };
  std::vector<PairRisk> risks;
  const auto& centers = placement.centers();
  for (std::size_t i = 0; i < centers.size(); ++i) {
    for (std::size_t j = i + 1; j < centers.size(); ++j) {
      const double pitch = geo::distance(centers[i], centers[j]);
      if (pitch > 25.0) continue;
      double vm_ls = 0.0, vm_pf = 0.0;
      for (const double t : {0.3, 0.5, 0.7}) {
        const geo::Point p = centers[i] + t * (centers[j] - centers[i]);
        if (placement.inside_any_tsv(p)) continue;
        vm_ls = std::max(vm_ls,
                         num::von_mises_plane_stress(ls.stress_at(p)));
        vm_pf = std::max(vm_pf,
                         num::von_mises_plane_stress(pf.stress_at(p)));
      }
      risks.push_back({i, j, pitch, vm_ls, vm_pf});
    }
  }
  std::sort(risks.begin(), risks.end(),
            [](const PairRisk& x, const PairRisk& y) {
              return x.vm_pf > y.vm_pf;
            });

  std::printf("%4s %4s %9s %12s %12s %s\n", "TSV", "TSV", "pitch(um)",
              "LS vm(MPa)", "PF vm(MPa)", "verdict");
  int flips = 0;
  for (const PairRisk& r : risks) {
    const bool fail_ls = r.vm_ls > vm_limit;
    const bool fail_pf = r.vm_pf > vm_limit;
    const char* verdict = fail_pf ? (fail_ls ? "FAIL" : "FAIL (LS missed)")
                                  : (fail_ls ? "ok (LS false alarm)" : "ok");
    if (fail_ls != fail_pf) ++flips;
    std::printf("%4zu %4zu %9.2f %12.1f %12.1f %s\n", r.a, r.b, r.pitch,
                r.vm_ls, r.vm_pf, verdict);
  }
  std::printf("\n%d of %zu close pairs change verdict once interactive "
              "stress is modeled\n", flips, risks.size());
  return 0;
}
