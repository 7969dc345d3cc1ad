#pragma once

#include <array>
#include <span>
#include <vector>

#include "rim/common/types.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file delaunay.hpp
/// Delaunay triangulation (incremental Bowyer–Watson).
///
/// Role in the library: the Delaunay triangulation contains the Gabriel
/// graph, the RNG and the Euclidean MST, so it provides (a) an independent
/// correctness oracle for those constructions and (b) the `udel`
/// (unit-Delaunay) topology — the classic planar localized structure of Li,
/// Calinescu, Wan (INFOCOM'02) used by geographic routing.
///
/// The implementation is the O(n²) point-insertion Bowyer–Watson. The
/// outside of the convex hull is one symbolic vertex at infinity (ghost
/// triangles on the hull edges) rather than a finite super-triangle, whose
/// vertices would fall inside the circumcircles of flat hull triangles and
/// cost their edges. The orientation and incircle signs are exact, so
/// near-collinear inputs triangulate correctly; cocircular quadruples
/// resolve arbitrarily but deterministically.

namespace rim::geom {

struct Triangle {
  std::array<NodeId, 3> v;  ///< vertex indices, CCW
};

class Delaunay {
 public:
  /// Triangulate \p points (>= 3 distinct, non-collinear points give a
  /// full triangulation; degenerate inputs give an empty triangle list but
  /// still a valid — possibly empty — edge graph).
  explicit Delaunay(std::span<const Vec2> points);

  /// Triangles of the final triangulation (ghost triangles removed).
  [[nodiscard]] const std::vector<Triangle>& triangles() const { return triangles_; }

  /// Undirected edge graph of the triangulation.
  [[nodiscard]] const graph::Graph& edges() const { return edge_graph_; }

 private:
  graph::Graph edge_graph_;
  std::vector<Triangle> triangles_;
};

/// True iff d lies strictly inside the circumcircle of CCW triangle abc,
/// decided exactly (a filtered double determinant with an exact fallback).
[[nodiscard]] bool in_circumcircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

/// The unit-Delaunay topology: Delaunay edges no longer than \p radius,
/// i.e. Del ∩ UDG. Contains Gabriel(UDG) and hence preserves connectivity.
[[nodiscard]] graph::Graph unit_delaunay(std::span<const Vec2> points,
                                         double radius = 1.0);

}  // namespace rim::geom
