package csm

import (
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Enumerator is the user-supplied search-tree traversal routine of the
// paper (§4): it exposes the search tree T of one update as Roots (the
// first layer) plus Expand (children of an inner node), so that ParaCOSM's
// engine — sequentially, or split across its inner-update executor's
// workers — can traverse it without knowing the algorithm's internals.
type Enumerator interface {
	// Roots emits the first-layer states of the search tree for upd: one
	// state per (query-edge orientation, endpoint assignment) that the
	// updated edge can seed. For insertions Roots is called after the
	// edge is in the graph and the ADS updated; for deletions before
	// either is touched (Algorithm 1's ordering).
	Roots(upd stream.Update, emit func(State))

	// Expand emits the children of s: all valid one-vertex extensions
	// along s's matching order. Expand must not retain s or the emitted
	// states after returning.
	Expand(s *State, emit func(State))

	// Terminal reports whether s is a leaf. When done, count is the
	// number of full matches the leaf represents (1 for ordinary
	// algorithms; CaLiG's counting mode can return the product of shell
	// candidate counts).
	Terminal(s *State) (count uint64, done bool)
}

// LeafCounter is an optional capability of an Enumerator: it answers a node
// at the last matching-order position with the number of its children
// instead of emitting them, for a driver that only counts matches
// (core.Engine without an OnMatch consumer, DESIGN.md §9). An algorithm
// declares it explicitly; it must not arrive by embedding, because the count
// is only right for an algorithm whose own Expand and Terminal it mirrors.
type LeafCounter interface {
	// CountLeaves reports ok when s has exactly one query vertex left to
	// match, and then n is the number of children Expand would emit for s,
	// every one of which Terminal would report as a leaf counting 1. For any
	// other state ok is false and the caller expands s as usual.
	CountLeaves(s *State) (n uint64, ok bool)
}

// Algorithm is a complete CSM algorithm pluggable into ParaCOSM, at any
// thread count. Beyond the traversal routine it provides the
// offline build and the two ADS hooks ParaCOSM's inter-update classifier
// needs: incremental maintenance (UpdateADS) and the stage-3 candidate
// filter (AffectsADS).
type Algorithm interface {
	Enumerator

	// Name returns the algorithm's display name.
	Name() string

	// Build runs the offline stage on (g, q): constructing the auxiliary
	// data structure and matching orders. The algorithm keeps references
	// to g and q; all later calls are relative to them.
	Build(g *graph.Graph, q *query.Graph) error

	// UpdateADS incrementally maintains the auxiliary data structure
	// after the graph mutation upd has been applied to g (for both
	// insertions and deletions the engine mutates g first, then calls
	// UpdateADS).
	UpdateADS(upd stream.Update)

	// AffectsADS reports whether upd would change the auxiliary data
	// structure or could contribute to a match — ParaCOSM's stage-3
	// candidate filter. It must be conservative: returning false asserts
	// that processing upd cannot change the match set or the ADS.
	// AffectsADS is called before the update is applied and must not
	// mutate anything.
	AffectsADS(upd stream.Update) bool
}

// Rebuilder is implemented by algorithms whose ADS can be reconstructed
// from scratch; tests use it to cross-check incremental maintenance.
type Rebuilder interface {
	// RebuildADS recomputes the ADS from the current graph state and
	// reports whether the incremental state matched the rebuilt state.
	RebuildADS() (consistent bool)
}

// LabelDispatch is implemented by algorithms whose update classifier has a
// label stage (a RelevantStages method, see algobase.Base): it states, once
// per registered query, which edge updates that stage can let through, so a
// driver serving many standing queries can leave this one out of an
// update's fan-out altogether and account the update as label-safe
// (core.MultiEngine's dispatch index, DESIGN.md §13).
type LabelDispatch interface {
	// DispatchLabels returns the unordered endpoint-label pairs ([lo, hi],
	// lo <= hi) of the query's edges — for an edge update whose endpoint
	// labels form any other pair the label stage fails and ΔM is empty,
	// whatever the edge label — and whether such a label-safe update must
	// still reach UpdateADS when either endpoint carries a query-vertex
	// label, because the ADS reads endpoint degrees or adjacency. Valid
	// after Build.
	DispatchLabels() (pairs [][2]graph.Label, adsReadsDegrees bool)
}
