#include "rim/geom/delaunay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

namespace rim::geom {

namespace {

// Exact predicates (Shewchuk, "Adaptive Precision Floating-Point Arithmetic
// and Fast Robust Geometric Predicates", 1997): the plain double
// determinant decides whenever it clears its rounding-error bound, and an
// exact expansion evaluation decides the rest. Near-collinear inputs such
// as the two-exponential-chains instance need the exact path; a wrong sign
// there breaks the cavity and overlaps triangles.

constexpr double kEpsilon = 0x1p-53;
constexpr double kOrientBound = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kInCircleBound = (10.0 + 96.0 * kEpsilon) * kEpsilon;

/// a + b == sum + err exactly.
void two_sum(double a, double b, double& sum, double& err) {
  sum = a + b;
  const double b_virtual = sum - a;
  const double a_virtual = sum - b_virtual;
  err = (a - a_virtual) + (b - b_virtual);
}

/// A nonoverlapping expansion of at most N components in increasing
/// magnitude, zeros eliminated: their exact sum is the value, and its sign
/// is the sign of the last component (zero is the one component 0.0). The
/// capacity is each predicate's bound, so the exact path never allocates.
/// Only c[0, size) is meaningful.
template <std::size_t N>
struct Expansion {
  std::size_t size = 0;
  double c[N];

  [[nodiscard]] int sign() const {
    const double top = c[size - 1];
    return top > 0.0 ? 1 : (top < 0.0 ? -1 : 0);
  }
};

/// h = e + f (Shewchuk's fast expansion sum with zero elimination): one
/// linear merge by increasing magnitude feeding one two-sum chain. \p h
/// holds ne + nf components and aliases neither input; returns its size.
std::size_t expansion_sum(const double* e, std::size_t ne, const double* f,
                          std::size_t nf, double* h) {
  std::size_t i = 0;
  std::size_t j = 0;
  const auto smaller = [&] {
    if (j == nf || (i < ne && std::abs(e[i]) < std::abs(f[j]))) return e[i++];
    return f[j++];
  };
  std::size_t k = 0;
  double q = smaller();
  while (i < ne || j < nf) {
    double err = 0.0;
    two_sum(q, smaller(), q, err);
    if (err != 0.0) h[k++] = err;
  }
  if (q != 0.0 || k == 0) h[k++] = q;
  return k;
}

/// h = e * b (Shewchuk's scale expansion with zero elimination): each
/// component product is exactly product + its std::fma remainder. \p h
/// holds 2 ne components and does not alias \p e; returns its size.
std::size_t scale_expansion(const double* e, std::size_t ne, double b,
                            double* h) {
  double q = e[0] * b;
  std::size_t k = 0;
  if (const double low = std::fma(e[0], b, -q); low != 0.0) h[k++] = low;
  for (std::size_t i = 1; i < ne; ++i) {
    const double product = e[i] * b;
    const double low = std::fma(e[i], b, -product);
    double sum = 0.0;
    double err = 0.0;
    two_sum(q, low, sum, err);
    if (err != 0.0) h[k++] = err;
    two_sum(product, sum, q, err);
    if (err != 0.0) h[k++] = err;
  }
  if (q != 0.0 || k == 0) h[k++] = q;
  return k;
}

/// a - b as an expansion.
Expansion<2> difference(double a, double b) {
  Expansion<2> d;
  double sum = 0.0;
  double err = 0.0;
  two_sum(a, -b, sum, err);
  if (err != 0.0) d.c[d.size++] = err;
  d.c[d.size++] = sum;
  return d;
}

template <std::size_t N, std::size_t M>
Expansion<N + M> operator+(const Expansion<N>& e, const Expansion<M>& f) {
  Expansion<N + M> sum;
  sum.size = expansion_sum(e.c, e.size, f.c, f.size, sum.c);
  return sum;
}

template <std::size_t N>
Expansion<N> operator-(Expansion<N> e) {
  for (std::size_t i = 0; i < e.size; ++i) e.c[i] = -e.c[i];
  return e;
}

/// e * f: the sum over f's components of e scaled by each.
template <std::size_t N, std::size_t M>
Expansion<2 * N * M> operator*(const Expansion<N>& e, const Expansion<M>& f) {
  Expansion<2 * N * M> product;
  double scaled[2 * N];
  double partial[2 * N * M];
  product.size = scale_expansion(e.c, e.size, f.c[0], product.c);
  for (std::size_t j = 1; j < f.size; ++j) {
    const std::size_t n = scale_expansion(e.c, e.size, f.c[j], scaled);
    std::copy_n(product.c, product.size, partial);
    product.size = expansion_sum(partial, product.size, scaled, n, product.c);
  }
  return product;
}

// The exact stages stay out of line: their expansions take kilobytes of
// stack, which the filtered fast paths should not reserve (and probe) on
// every call.

[[gnu::noinline]] int orientation_exact(Vec2 a, Vec2 b, Vec2 c) {
  return (difference(a.x, c.x) * difference(b.y, c.y) +
          -(difference(a.y, c.y) * difference(b.x, c.x)))
      .sign();
}

[[gnu::noinline]] int incircle_exact(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const Expansion<2> ax = difference(a.x, d.x);
  const Expansion<2> ay = difference(a.y, d.y);
  const Expansion<2> bx = difference(b.x, d.x);
  const Expansion<2> by = difference(b.y, d.y);
  const Expansion<2> cx = difference(c.x, d.x);
  const Expansion<2> cy = difference(c.y, d.y);
  const auto lift = [](const Expansion<2>& x, const Expansion<2>& y) {
    return x * x + y * y;
  };
  const auto cross2 = [](const Expansion<2>& x1, const Expansion<2>& y1,
                         const Expansion<2>& x2, const Expansion<2>& y2) {
    return x1 * y2 + -(x2 * y1);
  };
  return (lift(ax, ay) * cross2(bx, by, cx, cy) +
          lift(bx, by) * cross2(cx, cy, ax, ay) +
          lift(cx, cy) * cross2(ax, ay, bx, by))
      .sign();
}

/// Sign of the orientation of (a, b, c): +1 counter-clockwise, -1
/// clockwise, 0 collinear, exactly.
int orientation(Vec2 a, Vec2 b, Vec2 c) {
  const double left = (a.x - c.x) * (b.y - c.y);
  const double right = (a.y - c.y) * (b.x - c.x);
  const double det = left - right;
  const double bound = kOrientBound * (std::abs(left) + std::abs(right));
  if (det > bound) return 1;
  if (-det > bound) return -1;
  return orientation_exact(a, b, c);
}

/// Sign of the incircle determinant of (a, b, c, d): +1 when d is strictly
/// inside the circle through the counter-clockwise a, b, c, exactly.
int incircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const double adx = a.x - d.x;
  const double ady = a.y - d.y;
  const double bdx = b.x - d.x;
  const double bdy = b.y - d.y;
  const double cdx = c.x - d.x;
  const double cdy = c.y - d.y;
  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double alift = adx * adx + ady * ady;
  const double blift = bdx * bdx + bdy * bdy;
  const double clift = cdx * cdx + cdy * cdy;
  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);
  const double permanent =
      (std::abs(bdxcdy) + std::abs(cdxbdy)) * alift +
      (std::abs(cdxady) + std::abs(adxcdy)) * blift +
      (std::abs(adxbdy) + std::abs(bdxady)) * clift;
  const double bound = kInCircleBound * permanent;
  if (det > bound) return 1;
  if (-det > bound) return -1;
  return incircle_exact(a, b, c, d);
}

}  // namespace

bool in_circumcircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  return incircle(a, b, c, d) > 0;
}

namespace {

struct WorkTriangle {
  std::array<NodeId, 3> v;
  bool alive = true;
};

/// Canonical (sorted) edge key for the cavity-boundary bookkeeping.
std::pair<NodeId, NodeId> edge_key(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

/// How often an edge bounds the running cavity, and its direction in the
/// first bad triangle that had it.
struct CavityEdge {
  int count = 0;
  NodeId from = 0;
  NodeId to = 0;
};

}  // namespace

Delaunay::Delaunay(std::span<const Vec2> points) : edge_graph_(points.size()) {
  const std::size_t n = points.size();
  if (n < 2) return;
  if (n == 2) {
    if (!(points[0] == points[1])) edge_graph_.add_edge(0, 1);
    return;
  }

  // The seed triangle: node 0, the first node elsewhere, and the first
  // node off their line. Without one every point is collinear (or
  // coincident), and the path fallback below applies.
  NodeId i1 = 1;
  while (i1 < n && points[i1] == points[0]) ++i1;
  NodeId i2 = i1 + 1;
  while (i2 < n && orientation(points[0], points[i1], points[i2]) == 0) {
    ++i2;
  }

  // The outside of the hull is one symbolic vertex at infinity, kGhost
  // (de Berg et al., §9.3: no finite super-triangle can stay outside every
  // circumcircle of a hull triangle). Every triangle is CCW, so a ghost
  // triangle (u, v, kGhost) has the outside on the left of u->v; its
  // "circumcircle" is the open half-plane left of u->v plus the open
  // segment uv itself.
  constexpr NodeId kGhost = kInvalidNode;
  std::vector<WorkTriangle> work;
  const auto in_conflict = [&](const WorkTriangle& t, Vec2 p) {
    if (t.v[2] != kGhost) {
      return in_circumcircle(points[t.v[0]], points[t.v[1]], points[t.v[2]],
                             p);
    }
    const Vec2 u = points[t.v[0]];
    const Vec2 v = points[t.v[1]];
    const int side = orientation(u, v, p);
    if (side != 0) return side > 0;
    // On the line: inside exactly when strictly between u and v.
    const auto between = [](double lo, double x, double hi) {
      return std::min(lo, hi) < x && x < std::max(lo, hi);
    };
    return u.x != v.x ? between(u.x, p.x, v.x) : between(u.y, p.y, v.y);
  };
  if (i2 < n) {
    NodeId a = 0;
    NodeId b = i1;
    if (orientation(points[a], points[b], points[i2]) < 0) {
      std::swap(a, b);
    }
    work.push_back({{a, b, i2}, true});
    work.push_back({{b, a, kGhost}, true});
    work.push_back({{i2, b, kGhost}, true});
    work.push_back({{a, i2, kGhost}, true});
  }

  // Deterministic insertion order: by node id, after the seed triangle.
  for (NodeId p = 1; p < n && i2 < n; ++p) {
    if (p == i1 || p == i2) continue;
    // Cavity: all triangles in conflict with p. Boundary edges of the
    // cavity appear exactly once across the bad triangles.
    std::map<std::pair<NodeId, NodeId>, CavityEdge> cavity;
    for (WorkTriangle& t : work) {
      if (!t.alive || !in_conflict(t, points[p])) continue;
      t.alive = false;
      for (std::size_t k = 0; k < 3; ++k) {
        const NodeId from = t.v[k];
        const NodeId to = t.v[(k + 1) % 3];
        CavityEdge& edge = cavity[edge_key(from, to)];
        if (edge.count++ == 0) {
          edge.from = from;
          edge.to = to;
        }
      }
    }
    // Coincident point falling in no circumcircle: skip (it will simply be
    // absent from the triangulation, like a duplicate).
    if (cavity.empty()) continue;
    for (const auto& [key, edge] : cavity) {
      if (edge.count != 1) continue;  // interior edge of the cavity
      // The cavity is star-shaped from p, so (from, to, p) keeps the CCW
      // turn of the bad triangle it replaces. Rotate the ghost last.
      if (edge.from == kGhost) {
        work.push_back({{edge.to, p, kGhost}, true});
      } else if (edge.to == kGhost) {
        work.push_back({{p, edge.from, kGhost}, true});
      } else {
        work.push_back({{edge.from, edge.to, p}, true});
      }
    }
    // Compact periodically so the dead-triangle scan stays linear-ish.
    if (work.size() > 4 * n) {
      std::erase_if(work, [](const WorkTriangle& t) { return !t.alive; });
    }
  }

  for (const WorkTriangle& t : work) {
    if (!t.alive) continue;
    if (t.v[2] == kGhost) continue;  // outside the hull
    triangles_.push_back(Triangle{t.v});
    edge_graph_.add_edge(t.v[0], t.v[1]);
    edge_graph_.add_edge(t.v[1], t.v[2]);
    edge_graph_.add_edge(t.v[2], t.v[0]);
  }

  // All-collinear input (e.g. a highway instance embedded on the x-axis)
  // yields no real triangle; the limiting Delaunay graph is the path along
  // the sorted points, which we emit explicitly.
  if (triangles_.empty() && n >= 2) {
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return points[a] < points[b] || (points[a] == points[b] && a < b);
    });
    for (std::size_t i = 1; i < n; ++i) {
      if (points[order[i - 1]] == points[order[i]]) continue;  // duplicates
      edge_graph_.add_edge(order[i - 1], order[i]);
    }
  }
}

graph::Graph unit_delaunay(std::span<const Vec2> points, double radius) {
  const Delaunay del(points);
  graph::Graph out(points.size());
  const double r2 = radius * radius;
  for (graph::Edge e : del.edges().edges()) {
    if (dist2(points[e.u], points[e.v]) <= r2) out.add_edge(e.u, e.v);
  }
  return out;
}

}  // namespace rim::geom
