#pragma once

#include <cmath>
#include <compare>
#include <limits>
#include <vector>

/// \file vec2.hpp
/// Plain 2-D vector/point value type and distance kernels.
///
/// Highway (1-D) instances are represented as points with y == 0, so every
/// algorithm in the library operates on the same point type.

namespace rim::geom {

/// A point (or displacement) in the Euclidean plane.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Vec2 operator*(Vec2 a, double s) { return {a.x * s, a.y * s}; }
  friend constexpr Vec2 operator*(double s, Vec2 a) { return {a.x * s, a.y * s}; }
  friend constexpr Vec2 operator/(Vec2 a, double s) { return {a.x / s, a.y / s}; }
  friend constexpr bool operator==(Vec2 a, Vec2 b) { return a.x == b.x && a.y == b.y; }

  /// Lexicographic order (x, then y); used for deterministic tie-breaking.
  friend constexpr auto operator<=>(Vec2 a, Vec2 b) {
    if (auto c = a.x <=> b.x; c != 0) return c;
    return a.y <=> b.y;
  }
};

/// Dot product.
[[nodiscard]] constexpr double dot(Vec2 a, Vec2 b) { return a.x * b.x + a.y * b.y; }

/// Z-component of the 3-D cross product; >0 when b is counter-clockwise of a.
[[nodiscard]] constexpr double cross(Vec2 a, Vec2 b) { return a.x * b.y - a.y * b.x; }

/// Squared Euclidean norm. Prefer this in comparisons: it is exact for
/// representable coordinates and avoids the sqrt.
[[nodiscard]] constexpr double norm2(Vec2 a) { return dot(a, a); }

/// Squared distance between two points.
[[nodiscard]] constexpr double dist2(Vec2 a, Vec2 b) { return norm2(a - b); }

/// Euclidean distance between two points.
[[nodiscard]] inline double dist(Vec2 a, Vec2 b) { return std::sqrt(dist2(a, b)); }

/// The linear walk radius of a closed squared-radius query dist2 <= radius2:
/// sqrt(radius2) inflated by a few ulps, so a point whose exact squared
/// distance equals radius2 lies within it along each axis. Both grids walk
/// this radius, and the SINR stripes cull whole queries by it.
[[nodiscard]] inline double walk_radius(double radius2) {
  return std::sqrt(radius2) * (1.0 + 4e-16) +
         std::numeric_limits<double>::denorm_min();
}

/// Midpoint of the segment ab.
[[nodiscard]] constexpr Vec2 midpoint(Vec2 a, Vec2 b) { return (a + b) * 0.5; }

/// A deployment: node i of the network sits at points[i].
using PointSet = std::vector<Vec2>;

/// True when every point of the deployment lies on the x-axis, i.e. the
/// instance belongs to the highway model of the paper's Section 5.
[[nodiscard]] inline bool is_one_dimensional(const PointSet& points) {
  for (const Vec2& p : points) {
    if (p.y != 0.0) return false;
  }
  return true;
}

}  // namespace rim::geom
