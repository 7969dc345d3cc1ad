#include "rim/graph/shortest_path.hpp"

#include <queue>

namespace rim::graph {

std::vector<double> euclidean_dijkstra(const Graph& g, NodeId source,
                                       std::span<const geom::Vec2> points) {
  std::vector<double> dist(g.node_count(), kUnreachable);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (NodeId v : g.neighbors(u)) {
      const Edge e = Edge{u, v}.canonical();
      const double w = geom::dist(points[e.u], points[e.v]);
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        heap.emplace(dist[v], v);
      }
    }
  }
  return dist;
}

}  // namespace rim::graph
