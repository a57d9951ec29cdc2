// Package stream models the graph update stream ΔG of the CSM problem
// (Definition 2.3): a sequence of edge/vertex insertions and deletions
// applied to the data graph, plus a text codec and generators for building
// synthetic workloads.
package stream

import (
	"fmt"

	"paracosm/internal/graph"
)

// Op is the kind of a single graph update.
type Op uint8

const (
	// AddEdge inserts edge (U,V) with label ELabel.
	AddEdge Op = iota
	// DeleteEdge removes edge (U,V).
	DeleteEdge
	// AddVertex inserts an isolated vertex with label VLabel; U receives
	// the assigned id when applied.
	AddVertex
	// DeleteVertex removes the isolated vertex U.
	DeleteVertex
)

// String returns the codec mnemonic of the op.
func (o Op) String() string {
	switch o {
	case AddEdge:
		return "+e"
	case DeleteEdge:
		return "-e"
	case AddVertex:
		return "+v"
	case DeleteVertex:
		return "-v"
	}
	//lint:ignore noalloc unknown-op fallback: every named op returns a constant above
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Update is one element ΔG of the update stream.
type Update struct {
	Op     Op
	U, V   graph.VertexID
	ELabel graph.Label // for AddEdge
	VLabel graph.Label // for AddVertex
}

// IsEdge reports whether the update mutates an edge.
func (u Update) IsEdge() bool { return u.Op == AddEdge || u.Op == DeleteEdge }

// String formats the update in the codec's line format.
func (u Update) String() string {
	switch u.Op {
	case AddEdge:
		return fmt.Sprintf("+e %d %d %d", u.U, u.V, u.ELabel)
	case DeleteEdge:
		return fmt.Sprintf("-e %d %d", u.U, u.V)
	case AddVertex:
		return fmt.Sprintf("+v %d", u.VLabel)
	case DeleteVertex:
		return fmt.Sprintf("-v %d", u.U)
	}
	return "?"
}

// Apply mutates g according to u. It returns an error when the update does
// not apply cleanly (duplicate edge, missing edge, non-isolated vertex),
// which indicates a malformed stream.
func (u Update) Apply(g *graph.Graph) error {
	switch u.Op {
	case AddEdge:
		if !g.AddEdge(u.U, u.V, u.ELabel) {
			//lint:ignore noalloc malformed-stream path: error formatting is off the per-update contract
			return fmt.Errorf("stream: +e %d %d: edge exists or self loop", u.U, u.V)
		}
	case DeleteEdge:
		if !g.RemoveEdge(u.U, u.V) {
			//lint:ignore noalloc malformed-stream path: error formatting is off the per-update contract
			return fmt.Errorf("stream: -e %d %d: edge missing", u.U, u.V)
		}
	case AddVertex:
		g.AddVertex(u.VLabel)
	case DeleteVertex:
		if !g.Alive(u.U) {
			//lint:ignore noalloc malformed-stream path: error formatting is off the per-update contract
			return fmt.Errorf("stream: -v %d: vertex missing", u.U)
		}
		g.DeleteVertex(u.U)
	default:
		//lint:ignore noalloc malformed-stream path: error formatting is off the per-update contract
		return fmt.Errorf("stream: unknown op %d", u.Op)
	}
	return nil
}

// ApplyLogged is Apply with every mutation's inverse recorded in log, so
// the caller can validate a batch by speculative application and roll the
// graph back (see graph.UndoLog). Unlike Apply, deleting a non-isolated
// vertex is reported as an error instead of panicking: ApplyLogged is the
// validation path for untrusted streams, where a malformed update must be
// rejected, not crash the process.
func (u Update) ApplyLogged(g *graph.Graph, log *graph.UndoLog) error {
	switch u.Op {
	case AddEdge:
		if !g.AddEdgeLogged(u.U, u.V, u.ELabel, log) {
			return fmt.Errorf("stream: +e %d %d: edge exists or self loop", u.U, u.V)
		}
	case DeleteEdge:
		if !g.RemoveEdgeLogged(u.U, u.V, log) {
			return fmt.Errorf("stream: -e %d %d: edge missing", u.U, u.V)
		}
	case AddVertex:
		g.AddVertexLogged(u.VLabel, log)
	case DeleteVertex:
		if !g.Alive(u.U) {
			return fmt.Errorf("stream: -v %d: vertex missing", u.U)
		}
		if g.Degree(u.U) != 0 {
			return fmt.Errorf("stream: -v %d: vertex not isolated", u.U)
		}
		g.DeleteVertexLogged(u.U, log)
	default:
		return fmt.Errorf("stream: unknown op %d", u.Op)
	}
	return nil
}

// Invert returns the update that undoes u (edge ops only).
func (u Update) Invert() (Update, error) {
	switch u.Op {
	case AddEdge:
		return Update{Op: DeleteEdge, U: u.U, V: u.V}, nil
	case DeleteEdge:
		return Update{Op: AddEdge, U: u.U, V: u.V, ELabel: u.ELabel}, nil
	}
	return Update{}, fmt.Errorf("stream: cannot invert %v", u.Op)
}

// Stream is an ordered sequence of updates.
type Stream []Update

// ApplyAll applies every update in order, stopping at the first error.
func (s Stream) ApplyAll(g *graph.Graph) error {
	for i, u := range s {
		if err := u.Apply(g); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	return nil
}
