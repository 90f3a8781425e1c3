#pragma once
// Placement generators for the paper's experiments: TSV pair (Sec. 5.1),
// five-TSV cross (Fig. 5), regular arrays and random placements with a
// minimum-pitch constraint (Table 6 scalability study).

#include <cstdint>

#include "tsv/placement.h"

namespace tsv::tsvlib {

/// Two TSVs on the x-axis, `pitch` apart, centered on the origin.
Placement make_pair(const TsvStructure& s, double pitch);

/// Five TSVs: one at the origin and four at distance `pitch` along +-x/+-y
/// (the cross of Fig. 5; its minimal pitch is `pitch`).
Placement make_five_cross(const TsvStructure& s, double pitch);

/// nx x ny regular array with the given pitch, lower-left TSV at `origin`.
Placement make_array(const TsvStructure& s, std::size_t nx, std::size_t ny,
                     double pitch, geo::Point origin = {0.0, 0.0});

/// `count` TSVs uniformly random in `area`, rejecting candidates closer than
/// `min_pitch` to an accepted TSV. Deterministic for a given seed. Throws
/// std::runtime_error if the area cannot fit the TSVs (too many rejections).
Placement make_random(const TsvStructure& s, std::size_t count,
                      const geo::Box& area, double min_pitch,
                      std::uint64_t seed);

/// Square-ish array hitting `density` (TSVs per um^2) with `count` TSVs,
/// each jittered uniformly so that the pitch never drops below `min_pitch`.
/// This reaches the dense-array packing limit (paper: 1.0e-2 um^-2 at 10 um
/// pitch) that rejection sampling cannot.
Placement make_jittered_array(const TsvStructure& s, std::size_t count,
                              double density, double min_pitch,
                              std::uint64_t seed);

}  // namespace tsv::tsvlib
