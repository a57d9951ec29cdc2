// Package newsp implements the NewSP baseline (Li et al., ICDE'24) in the
// general CSM model. NewSP decouples the search into CPT (compatible-set
// computation along the matching order) and EXP (expansion), deferring
// expansion until compatibility is established. In this reproduction the
// decoupling manifests as one-step-deferred expansion with forward
// checking: before a child state is expanded, the compatible sets of the
// not-yet-matched query vertices adjacent to the newly matched vertex are
// verified non-empty, pruning subtrees that plain backtracking (GraphFlow)
// would explore to failure. Like GraphFlow it keeps no auxiliary data
// structure (Table 1: O(1) index update).
package newsp

import (
	"paracosm/internal/algo/algobase"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// NewSP is the CPT/EXP-decoupled CSM baseline.
type NewSP struct {
	algobase.Base
}

// New returns a NewSP instance.
func New() *NewSP { return &NewSP{} }

var _ csm.Algorithm = (*NewSP)(nil)

// Name implements csm.Algorithm.
func (a *NewSP) Name() string { return "NewSP" }

// Build implements csm.Algorithm.
func (a *NewSP) Build(g *graph.Graph, q *query.Graph) error {
	a.Init(g, q)
	return nil
}

// UpdateADS implements csm.Algorithm: nothing to maintain.
func (a *NewSP) UpdateADS(stream.Update) {}

// AffectsADS implements csm.Algorithm: no ADS, so any label/degree-relevant
// update is potentially match-changing.
func (a *NewSP) AffectsADS(upd stream.Update) bool { return a.Relevant(upd) }

// Expand overrides the base expansion with NewSP's deferred-expansion
// pruning: a child is emitted only if, for every unmatched query vertex w
// adjacent to the newly matched vertex, the compatible set C(w, child) is
// non-empty (CPT before EXP).
func (a *NewSP) Expand(s *csm.State, emit func(csm.State)) {
	ord := a.Order(csm.DecodeOrder(s.Order))
	if int(s.Depth) >= len(ord) {
		return
	}
	u := ord[s.Depth]
	back := a.Backward(csm.DecodeOrder(s.Order))[s.Depth]
	a.ForEachCandidate(s, u, back, func(v graph.VertexID) {
		child := *s
		child.Set(u, v)
		if a.lookaheadOK(&child, u) {
			emit(child)
		}
	})
}

// lookaheadOK verifies that every unmatched query neighbor of u still has a
// compatible candidate under the extended state.
func (a *NewSP) lookaheadOK(s *csm.State, u query.VertexID) bool {
	for _, wq := range a.Q.Neighbors(u) {
		w := wq.ID
		if s.Matched(w) != graph.NoVertex {
			continue
		}
		if !a.hasCandidate(s, w) {
			return false
		}
	}
	return true
}

// hasCandidate reports whether C(w, s) is non-empty: some data vertex with
// w's label, sufficient degree, unused, and connected with matching edge
// labels to every matched query neighbor of w. Like ForEachCandidate it is
// a k-way zipper over the L(w)-labeled adjacency runs of the matched
// neighbors, with all cursor state in fixed stack arrays (zero alloc — the
// lookahead runs on the non-escalated path too).
func (a *NewSP) hasCandidate(s *csm.State, w query.VertexID) bool {
	lw := a.Q.Label(w)
	var (
		runs    [query.MaxVertices][]graph.Neighbor
		elabels [query.MaxVertices]graph.Label
		pos     [query.MaxVertices]int
	)
	k := 0
	for _, nb := range a.Q.Neighbors(w) {
		if m := s.Matched(nb.ID); m != graph.NoVertex {
			runs[k] = a.G.NeighborsWithLabel(m, lw)
			elabels[k] = nb.ELabel
			k++
		}
	}
	if k == 0 {
		return true // no constraint reachable yet
	}
	// Anchor on the smallest run.
	ai := 0
	for i := 1; i < k; i++ {
		if len(runs[i]) < len(runs[ai]) {
			ai = i
		}
	}
	cand := runs[ai]
	anchorEL := elabels[ai]
	runs[ai], elabels[ai] = runs[k-1], elabels[k-1]
	k--
	dw := a.Q.Degree(w)
	var probes, galloped uint64
	found := false
zip:
	for _, nb := range cand {
		if !a.IgnoreELabels && nb.ELabel != anchorEL {
			continue
		}
		v := nb.ID
		if a.G.Degree(v) < dw || s.Uses(v) {
			continue
		}
		for i := 0; i < k; i++ {
			j, g := graph.AdvanceNeighbors(runs[i], pos[i], v)
			probes++
			if g {
				galloped++
			}
			if j == len(runs[i]) {
				break zip
			}
			pos[i] = j
			if runs[i][j].ID != v || (!a.IgnoreELabels && runs[i][j].ELabel != elabels[i]) {
				continue zip
			}
		}
		found = true
		break
	}
	if k > 0 {
		a.Kernel(s).AddIntersection(probes, galloped)
	}
	return found
}
