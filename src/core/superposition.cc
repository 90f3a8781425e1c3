#include "core/superposition.h"

#include <cmath>

#include "numeric/kernels.h"
#include "numeric/parallel.h"

namespace tsv::core {
namespace {

geo::Box index_bounds(const tsvlib::Placement& p) {
  return p.empty() ? geo::Box{{0.0, 0.0}, {1.0, 1.0}} : p.bounding_box();
}

}  // namespace

LinearSuperposition::LinearSuperposition(
    const tsvlib::Placement& placement,
    std::shared_ptr<const SingleTsvField> table,
    double influence_radius, std::size_t num_threads)
    : placement_(placement),
      table_(std::move(table)),
      influence_radius_(influence_radius),
      num_threads_(num_threads),
      index_(placement.centers(), index_bounds(placement),
             std::max(influence_radius / 2.0, 1.0)) {
  TSV_REQUIRE(table_ != nullptr, "null single-TSV field");
  TSV_REQUIRE(influence_radius_ > 0.0,
              "influence radius must be positive");
}

num::SymTensor2 LinearSuperposition::stress_at(const geo::Point& p) const {
  const auto& centers = placement_.centers();
  std::vector<std::uint32_t>& nearby = num::tls_kernel_scratch().idx;
  index_.query_radius(p, influence_radius_, nearby);
  return table_->sum_at(p, centers.data(), nearby.data(), nearby.size());
}

std::vector<num::SymTensor2> LinearSuperposition::evaluate(
    const std::vector<geo::Point>& points) const {
  const auto& centers = placement_.centers();
  std::vector<num::SymTensor2> out(points.size());
  num::parallel_for_chunks(
      points.size(), num_threads_,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<std::uint32_t> nearby;
        for (std::size_t n = begin; n < end; ++n) {
          index_.query_radius(points[n], influence_radius_, nearby);
          out[n] = table_->sum_at(points[n], centers.data(), nearby.data(),
                                  nearby.size());
        }
      });
  return out;
}

std::vector<num::SymTensor2> LinearSuperposition::evaluate(
    const geo::GridWindow& window) const {
  const auto& centers = placement_.centers();
  const double radius = influence_radius_;
  const std::size_t nx = window.nx();
  std::vector<num::SymTensor2> out(window.size());
  num::parallel_for_chunks(
      window.ny(), num_threads_,
      [&](std::size_t row_begin, std::size_t row_end, std::size_t) {
        const geo::GridWindow band = window.rows(row_begin, row_end);
        const std::vector<geo::Point> points = band.points();
        num::SymTensor2* const band_out = out.data() + row_begin * nx;
        // The TSVs within radius + half diagonal (+ slack for rounding) of
        // the band's center; the disc walk applies the exact test.
        const geo::Box box = band.bounds();
        const double reach =
            radius + std::hypot(box.width(), box.height()) / 2.0 + 1.0;
        for (const std::uint32_t t : index_.query_radius(box.center(), reach))
          band.for_disc_rows(
              centers[t], radius,
              [&](std::size_t row, std::size_t col_begin, std::size_t col_end) {
                const std::size_t at = row * nx + col_begin;
                table_->accumulate(centers[t], points.data() + at,
                                   col_end - col_begin, band_out + at);
              });
      });
  return out;
}

}  // namespace tsv::core
