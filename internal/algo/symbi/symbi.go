// Package symbi implements the Symbi baseline (Min et al., VLDB'21) in the
// general CSM model. Symbi maintains the dynamic candidate space (DCS)
// with symmetric bidirectional dynamic programming over the query's BFS
// DAG: D1 propagates top-down from the roots, D2 bottom-up from the
// leaves, and v is a candidate of u iff both hold. Because the DAG covers
// every query edge (unlike TurboFlux's spanning tree), DCS prunes strictly
// more than the DCG.
package symbi

import (
	"paracosm/internal/algo/algobase"
	"paracosm/internal/algo/dpindex"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Symbi is the DCS-indexed CSM baseline.
type Symbi struct {
	algobase.Base
	ix *dpindex.Index
}

// New returns a Symbi instance.
func New() *Symbi { return &Symbi{} }

var (
	_ csm.Algorithm   = (*Symbi)(nil)
	_ csm.Rebuilder   = (*Symbi)(nil)
	_ csm.LeafCounter = (*Symbi)(nil)
)

// Name implements csm.Algorithm.
func (a *Symbi) Name() string { return "Symbi" }

// Build implements csm.Algorithm: constructs the DCS over the BFS DAG.
func (a *Symbi) Build(g *graph.Graph, q *query.Graph) error {
	a.Init(g, q)
	a.ix = dpindex.New(g, q, dpindex.DAGSkeleton(q.BuildDAG()), false)
	a.Filter = a.ix.Candidate
	return nil
}

// CountLeaves implements csm.LeafCounter: Symbi keeps Base's Expand and
// Terminal, so Base's count of the last level is its own.
func (a *Symbi) CountLeaves(s *csm.State) (uint64, bool) { return a.CountLastLevel(s) }

// UpdateADS implements csm.Algorithm: incremental DCS maintenance.
func (a *Symbi) UpdateADS(upd stream.Update) { a.ix.ApplyUpdate(upd) }

// AffectsADS implements csm.Algorithm: stage-3 candidate filtering against
// the DCS.
func (a *Symbi) AffectsADS(upd stream.Update) bool {
	return a.Relevant(upd) && a.ix.WouldAffect(upd)
}

// RebuildADS implements csm.Rebuilder.
func (a *Symbi) RebuildADS() bool { return a.ix.ConsistentWithRebuild() }

// Index exposes the DCS for white-box tests.
func (a *Symbi) Index() *dpindex.Index { return a.ix }
