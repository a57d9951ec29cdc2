// Package turboflux implements the TurboFlux baseline (Kim et al.,
// SIGMOD'18) in the general CSM model. TurboFlux maintains the
// data-centric graph (DCG): for every (query vertex, data vertex) pair an
// edge-transition state NULL -> IMPLICIT -> EXPLICIT over a spanning tree
// of the query. Here the DCG is realized as a bidirectional DP index over
// the tree skeleton (see internal/algo/dpindex): IMPLICIT corresponds to
// top-down support (D1), EXPLICIT to top-down plus bottom-up support.
// Non-tree query edges are validated during enumeration, as in the
// original system.
package turboflux

import (
	"paracosm/internal/algo/algobase"
	"paracosm/internal/algo/dpindex"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// TurboFlux is the DCG-indexed CSM baseline.
type TurboFlux struct {
	algobase.Base
	ix *dpindex.Index
}

// New returns a TurboFlux instance.
func New() *TurboFlux { return &TurboFlux{} }

var (
	_ csm.Algorithm   = (*TurboFlux)(nil)
	_ csm.Rebuilder   = (*TurboFlux)(nil)
	_ csm.LeafCounter = (*TurboFlux)(nil)
)

// Name implements csm.Algorithm.
func (a *TurboFlux) Name() string { return "TurboFlux" }

// Build implements csm.Algorithm: constructs the DCG over a BFS spanning
// tree rooted at the highest-degree query vertex.
func (a *TurboFlux) Build(g *graph.Graph, q *query.Graph) error {
	a.Init(g, q)
	tree := q.BuildSpanningTree()
	a.ix = dpindex.New(g, q, dpindex.TreeSkeleton(q, tree), false)
	a.Filter = a.ix.Candidate
	return nil
}

// CountLeaves implements csm.LeafCounter: TurboFlux keeps Base's Expand and
// Terminal, so Base's count of the last level is its own.
func (a *TurboFlux) CountLeaves(s *csm.State) (uint64, bool) { return a.CountLastLevel(s) }

// UpdateADS implements csm.Algorithm: incremental DCG maintenance.
func (a *TurboFlux) UpdateADS(upd stream.Update) { a.ix.ApplyUpdate(upd) }

// AffectsADS implements csm.Algorithm: stage-3 candidate filtering against
// the DCG.
func (a *TurboFlux) AffectsADS(upd stream.Update) bool {
	return a.Relevant(upd) && a.ix.WouldAffect(upd)
}

// RebuildADS implements csm.Rebuilder.
func (a *TurboFlux) RebuildADS() bool { return a.ix.ConsistentWithRebuild() }
