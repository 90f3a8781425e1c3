#include "tsv/generators.h"

#include <cmath>
#include <random>
#include <stdexcept>

#include "core/error.h"
#include "geometry/grid_index.h"

namespace tsv::tsvlib {

Placement make_pair(const TsvStructure& s, double pitch) {
  TSV_REQUIRE(pitch > 0.0, "pitch must be positive");
  Placement p(s, {{-pitch / 2.0, 0.0}, {pitch / 2.0, 0.0}});
  p.validate_no_overlap();
  return p;
}

Placement make_five_cross(const TsvStructure& s, double pitch) {
  TSV_REQUIRE(pitch > 0.0, "pitch must be positive");
  Placement p(s, {{0.0, 0.0},
                  {pitch, 0.0},
                  {-pitch, 0.0},
                  {0.0, pitch},
                  {0.0, -pitch}});
  p.validate_no_overlap();
  return p;
}

Placement make_array(const TsvStructure& s, std::size_t nx, std::size_t ny,
                     double pitch, geo::Point origin) {
  TSV_REQUIRE(nx >= 1 && ny >= 1, "array needs at least one TSV per axis");
  TSV_REQUIRE(pitch > 0.0, "pitch must be positive");
  Placement p(s);
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix)
      p.add({origin.x + static_cast<double>(ix) * pitch,
             origin.y + static_cast<double>(iy) * pitch});
  p.validate_no_overlap();
  return p;
}

Placement make_random(const TsvStructure& s, std::size_t count,
                      const geo::Box& area, double min_pitch,
                      std::uint64_t seed) {
  TSV_REQUIRE(min_pitch >= 2.0 * s.outer_radius(),
              "min_pitch must keep TSVs from overlapping");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(area.lo.x, area.hi.x);
  std::uniform_real_distribution<double> uy(area.lo.y, area.hi.y);

  // Dart throwing with a dynamic bucket grid: the min-pitch test is O(1)
  // per candidate, so 10k+ TSV full-chip workloads generate in linear time
  // instead of the quadratic scan this used before.
  geo::OccupancyGrid accepted(area, min_pitch);
  const std::size_t max_attempts = count * 1000 + 10000;
  std::size_t attempts = 0;
  while (accepted.size() < count) {
    if (++attempts > max_attempts)
      throw ResourceLimitError(
          "make_random: could not fit the requested TSV count into the area "
          "under the min-pitch constraint");
    const geo::Point cand{ux(rng), uy(rng)};
    if (!accepted.any_within(cand, min_pitch * (1.0 - 1e-12)))
      accepted.insert(cand);
  }
  Placement p(s, accepted.points());
  return p;
}

Placement make_jittered_array(const TsvStructure& s, std::size_t count,
                              double density, double min_pitch,
                              std::uint64_t seed) {
  TSV_REQUIRE(density > 0.0, "density must be positive");
  TSV_REQUIRE(min_pitch >= 2.0 * s.outer_radius(),
              "min_pitch must keep TSVs from overlapping");
  const double pitch = 1.0 / std::sqrt(density);
  TSV_REQUIRE(pitch >= min_pitch,
              "requested density exceeds the min-pitch packing limit");
  // Jitter amplitude that provably preserves min_pitch: if every TSV moves at
  // most j in each axis, the worst-case pitch is pitch - 2*sqrt(2)*j.
  const double j = (pitch - min_pitch) / (2.0 * std::sqrt(2.0));
  const std::size_t nx =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(count))));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(-j, j);
  Placement p(s);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t ix = i % nx;
    const std::size_t iy = i / nx;
    p.add({static_cast<double>(ix) * pitch + jitter(rng),
           static_cast<double>(iy) * pitch + jitter(rng)});
  }
  p.validate_no_overlap();
  return p;
}

}  // namespace tsv::tsvlib
