// Package graphflow implements the GraphFlow baseline (Kankanamge et al.,
// SIGMOD'17) in the general CSM model: no auxiliary data structure at all
// (Table 1: O(1) index update), matches are found by direct backtracking
// from the updated edge with label/degree pruning only.
package graphflow

import (
	"paracosm/internal/algo/algobase"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// GraphFlow is the index-free CSM baseline.
type GraphFlow struct {
	algobase.Base
}

// New returns a GraphFlow instance.
func New() *GraphFlow { return &GraphFlow{} }

var (
	_ csm.Algorithm   = (*GraphFlow)(nil)
	_ csm.LeafCounter = (*GraphFlow)(nil)
)

// Name implements csm.Algorithm.
func (a *GraphFlow) Name() string { return "GraphFlow" }

// Build implements csm.Algorithm: GraphFlow has no ADS, only matching
// orders.
func (a *GraphFlow) Build(g *graph.Graph, q *query.Graph) error {
	a.Init(g, q)
	return nil
}

// CountLeaves implements csm.LeafCounter: GraphFlow keeps Base's Expand and
// Terminal, so Base's count of the last level is its own.
func (a *GraphFlow) CountLeaves(s *csm.State) (uint64, bool) { return a.CountLastLevel(s) }

// UpdateADS implements csm.Algorithm: nothing to maintain.
func (a *GraphFlow) UpdateADS(stream.Update) {}

// AffectsADS implements csm.Algorithm. With no ADS to filter against, any
// update passing the label/degree stages must be treated as potentially
// match-changing.
func (a *GraphFlow) AffectsADS(upd stream.Update) bool { return a.Relevant(upd) }
