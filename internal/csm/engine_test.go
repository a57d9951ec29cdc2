package csm_test

// The engine tests hold a minimal Algorithm to Algorithm 1's contract by
// driving it through the repository's one engine, core.Engine, at
// Threads(1) with the classifier off: every update takes the full path.
// They live in the external test package because core imports csm.

import (
	"context"
	"errors"
	"testing"
	"time"

	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// pathAlgo is a minimal Algorithm matching the 2-vertex query "0-1" with
// labels (0,1): every inserted (0-labeled, 1-labeled) edge is a match.
type pathAlgo struct {
	g        *graph.Graph
	q        *query.Graph
	adsCalls int
}

func (a *pathAlgo) Name() string { return "path" }
func (a *pathAlgo) Build(g *graph.Graph, q *query.Graph) error {
	a.g, a.q = g, q
	return nil
}
func (a *pathAlgo) UpdateADS(stream.Update) { a.adsCalls++ }
func (a *pathAlgo) AffectsADS(u stream.Update) bool {
	return u.IsEdge()
}
func (a *pathAlgo) Roots(u stream.Update, emit func(csm.State)) {
	if !u.IsEdge() {
		return
	}
	lx, ly := a.g.Label(u.U), a.g.Label(u.V)
	if lx == 0 && ly == 1 {
		s := csm.NewState(0)
		s.Set(0, u.U)
		s.Set(1, u.V)
		emit(s)
	}
	if lx == 1 && ly == 0 {
		s := csm.NewState(0)
		s.Set(0, u.V)
		s.Set(1, u.U)
		emit(s)
	}
}
func (a *pathAlgo) Expand(*csm.State, func(csm.State)) {}
func (a *pathAlgo) Terminal(s *csm.State) (uint64, bool) {
	return 1, s.Depth == 2
}

// sequential is the Algorithm 1 baseline: one searcher, every update on the
// full path.
func sequential(a csm.Algorithm) *core.Engine {
	return core.New(a, core.Threads(1), core.InterUpdate(false))
}

func engineFixture(t *testing.T) (*core.Engine, *graph.Graph) {
	t.Helper()
	g := graph.New(4)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(0)
	g.AddVertex(1)
	q := query.MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := sequential(&pathAlgo{})
	if err := e.Init(g, q); err != nil {
		t.Fatal(err)
	}
	return e, g
}

func TestEngineInsertionDelta(t *testing.T) {
	e, g := engineFixture(t)
	d, err := e.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Positive != 1 || d.Negative != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("edge not applied")
	}
	// Label-mismatched edge: no match.
	d, err = e.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 0, V: 2})
	if err != nil || d.Positive != 0 {
		t.Fatalf("delta = %+v err=%v", d, err)
	}
}

func TestEngineDeletionDelta(t *testing.T) {
	e, g := engineFixture(t)
	if _, err := e.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	d, err := e.ProcessUpdate(context.Background(), stream.Update{Op: stream.DeleteEdge, U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Negative != 1 || d.Positive != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
}

func TestEngineRejectsBadUpdates(t *testing.T) {
	e, _ := engineFixture(t)
	if _, err := e.ProcessUpdate(context.Background(), stream.Update{Op: stream.DeleteEdge, U: 0, V: 1}); err == nil {
		t.Fatal("deleting a missing edge should error")
	}
}

func TestEngineStatsAccumulate(t *testing.T) {
	e, _ := engineFixture(t)
	s := stream.Stream{
		{Op: stream.AddEdge, U: 0, V: 1},
		{Op: stream.AddEdge, U: 2, V: 3},
		{Op: stream.AddVertex, VLabel: 0},
	}
	st, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 3 || st.Positive != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TADS < 0 || st.TFind < 0 || st.TADS+st.TFind > st.TTotal {
		t.Fatalf("ADS %v + find %v exceed total %v", st.TADS, st.TFind, st.TTotal)
	}
	e.ResetStats()
	if e.Stats().Updates != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestEngineOnMatchCallback(t *testing.T) {
	e, _ := engineFixture(t)
	var got []graph.VertexID
	e.OnMatch = func(s *csm.State, count uint64, positive bool) {
		got = append(got, s.Map[0], s.Map[1])
		if count != 1 || !positive {
			t.Errorf("count=%d positive=%v", count, positive)
		}
	}
	if _, err := e.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 2, V: 1}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("OnMatch saw %v", got)
	}
}

func TestEngineInitValidation(t *testing.T) {
	e := sequential(&pathAlgo{})
	if err := e.Init(nil, nil); err == nil {
		t.Fatal("nil Init accepted")
	}
}

// slowAlgo emits an unbounded search tree, to exercise the deadline path.
type slowAlgo struct{ pathAlgo }

func (a *slowAlgo) Expand(s *csm.State, emit func(csm.State)) {
	// Keep emitting depth-0-ish states forever by never reaching Terminal.
	child := *s
	emit(child)
}
func (a *slowAlgo) Terminal(*csm.State) (uint64, bool) { return 0, false }

func TestEngineDeadline(t *testing.T) {
	g := graph.New(2)
	g.AddVertex(0)
	g.AddVertex(1)
	q := query.MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := sequential(&slowAlgo{})
	if err := e.Init(g, q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := e.ProcessUpdate(ctx, stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	if !errors.Is(err, csm.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}
