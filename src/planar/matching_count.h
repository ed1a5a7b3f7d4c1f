// Counting oracle for perfect matchings of a planar graph.
//
// #PM(G) = |Pf(A)| for the FKT-oriented skew adjacency matrix (Kasteleyn).
// Conditioning — the only operation the samplers need — deletes *matched
// pairs* (adjacent vertex pairs): restricting A to the surviving vertices
// stays Pfaffian because a deleted edge's endpoints always lie on the same
// side of any cycle of the remaining graph, so the parity of enclosed
// vertices (and with it the sign-consistency of the Pfaffian expansion)
// is preserved. Deleting arbitrary vertex sets would NOT be sound.
#pragma once

#include "linalg/matrix.h"
#include "planar/fkt.h"
#include "planar/graph.h"

namespace pardpp {

class MatchingCounter {
 public:
  /// Builds the FKT orientation for a connected planar graph.
  explicit MatchingCounter(const PlanarGraph& g);

  [[nodiscard]] const PlanarGraph& graph() const { return *graph_; }

  /// log #PM(G); -inf when G has no perfect matching.
  [[nodiscard]] double log_count() const;

  /// log #PM of the induced subgraph on `alive` — valid when the removed
  /// vertices form a union of matched pairs (see header comment).
  [[nodiscard]] double log_count_alive(std::span<const int> alive) const;

 private:
  const PlanarGraph* graph_;
  KasteleynOrientation orientation_;
};

}  // namespace pardpp
