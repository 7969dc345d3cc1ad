#include "rim/core/radii.hpp"

#include <algorithm>
#include <cmath>

namespace rim::core {

std::vector<double> transmission_radii(const graph::Graph& topology,
                                       std::span<const geom::Vec2> points) {
  std::vector<double> radii(topology.node_count(), 0.0);
  for (NodeId u = 0; u < topology.node_count(); ++u) {
    double best = 0.0;
    for (NodeId v : topology.neighbors(u)) {
      best = std::max(best, geom::dist2(points[u], points[v]));
    }
    radii[u] = std::sqrt(best);
  }
  return radii;
}

std::vector<double> transmission_radii_squared(const graph::Graph& topology,
                                               std::span<const geom::Vec2> points) {
  std::vector<double> radii2(topology.node_count(), 0.0);
  for (NodeId u = 0; u < topology.node_count(); ++u) {
    double best = 0.0;
    for (NodeId v : topology.neighbors(u)) {
      best = std::max(best, geom::dist2(points[u], points[v]));
    }
    radii2[u] = best;
  }
  return radii2;
}

double pick_cell_size(std::span<const double> radii2, double scale) {
  std::vector<double> positive;
  positive.reserve(radii2.size());
  for (const double r2 : radii2) {
    if (r2 > 0.0) positive.push_back(r2);
  }
  if (positive.empty()) return 1.0;
  const auto mid =
      positive.begin() + static_cast<std::ptrdiff_t>(positive.size() / 2);
  std::nth_element(positive.begin(), mid, positive.end());
  // Rounding r2 * scale is monotone in r2, so scaling the median equals
  // the median of the scaled radii.
  return std::max(std::sqrt(*mid * scale), 1e-12);
}

double total_power(std::span<const double> radii, double alpha) {
  double sum = 0.0;
  for (double r : radii) sum += std::pow(r, alpha);
  return sum;
}

}  // namespace rim::core
