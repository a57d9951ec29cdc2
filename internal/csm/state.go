// Package csm defines the general continuous-subgraph-matching model of the
// ParaCOSM paper (§2.2, Algorithm 1): the partial-embedding search state,
// the algorithm interface every baseline implements (its search-tree
// traversal routine and its ADS filtering rule), and the per-update result
// an engine reports. The engine that drives the offline/online two-stage
// process is internal/core's: Threads(1) is the sequential baseline, and
// its executors parallelize any conforming algorithm without touching its
// logic.
package csm

import (
	"paracosm/internal/graph"
	"paracosm/internal/query"
)

// State is one node of the abstract search tree T: a partial embedding
// from query vertices to data vertices plus bookkeeping identifying which
// matching order the embedding is being extended along.
//
// State is a value type: copying it is how ParaCOSM forks a subtree into an
// independently executable task.
type State struct {
	// Map[u] is the data vertex matched to query vertex u, or
	// graph.NoVertex.
	Map [query.MaxVertices]graph.VertexID
	// Order identifies the matching order in use. The standard encoding
	// (used by all bundled algorithms) is 2*edgeIndex + flipped for the
	// query-edge orientation the updated data edge was mapped onto, but
	// the engine treats it as opaque.
	Order uint16
	// Depth is the number of query vertices matched so far.
	Depth uint8
	// Slot names the searcher — the goroutine — exploring this node: 0 is
	// the engine's caller, k the pool worker on seat k of an escalated
	// update's job (k < the engine's Threads). The executor stamps it on
	// every node it pops and children inherit it by copy, so an algorithm
	// can keep per-searcher single-writer scratch (the intersection-kernel
	// counter stripes of algobase.Base) indexed by it. It occupies the
	// struct's one padding byte and carries no matching semantics.
	Slot uint8
}

// NewState returns an empty state (no vertices matched) for the given
// order id.
func NewState(order uint16) State {
	var s State
	for i := range s.Map {
		s.Map[i] = graph.NoVertex
	}
	s.Order = order
	return s
}

// Set records the assignment u -> v and increments Depth. It panics if u is
// already matched (programming error in an algorithm).
func (s *State) Set(u query.VertexID, v graph.VertexID) {
	if s.Map[u] != graph.NoVertex {
		panic("csm: query vertex matched twice")
	}
	s.Map[u] = v
	s.Depth++
}

// Uses reports whether data vertex v already appears in the embedding
// (the injectivity test of subgraph isomorphism).
func (s *State) Uses(v graph.VertexID) bool {
	for _, m := range s.Map {
		if m == v {
			return true
		}
	}
	return false
}

// Matched returns the data vertex assigned to u, or graph.NoVertex.
func (s *State) Matched(u query.VertexID) graph.VertexID { return s.Map[u] }

// EncodeOrder packs a query-edge orientation into a State.Order value.
func EncodeOrder(eo query.EdgeOrientation) uint16 {
	o := uint16(eo.Index) << 1
	if eo.Flipped {
		o |= 1
	}
	return o
}

// DecodeOrder unpacks a State.Order value produced by EncodeOrder.
func DecodeOrder(o uint16) query.EdgeOrientation {
	return query.EdgeOrientation{Index: int(o >> 1), Flipped: o&1 == 1}
}
