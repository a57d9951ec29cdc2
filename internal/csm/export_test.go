package csm

import (
	"paracosm/internal/graph"
	"paracosm/internal/query"
)

// Unset removes the assignment of u and decrements Depth, the inverse of
// Set the state tests exercise.
func (s *State) Unset(u query.VertexID) {
	if s.Map[u] == graph.NoVertex {
		panic("csm: unset of unmatched query vertex")
	}
	s.Map[u] = graph.NoVertex
	s.Depth--
}
