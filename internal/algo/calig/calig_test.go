package calig

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

func TestCountInjectiveDisjointSets(t *testing.T) {
	cands := [][]graph.VertexID{{1, 2, 3}, {4, 5}}
	if got := countInjective(cands); got != 6 {
		t.Fatalf("countInjective = %d, want 6", got)
	}
}

func TestCountInjectiveIdenticalSets(t *testing.T) {
	// Two shells sharing {1,2,3}: 3*2 = 6 injective assignments.
	cands := [][]graph.VertexID{{1, 2, 3}, {1, 2, 3}}
	if got := countInjective(cands); got != 6 {
		t.Fatalf("countInjective = %d, want 6", got)
	}
	// Three shells over {1,2}: impossible.
	cands = [][]graph.VertexID{{1, 2}, {1, 2}, {1, 2}}
	if got := countInjective(cands); got != 0 {
		t.Fatalf("countInjective = %d, want 0", got)
	}
}

func TestCountInjectivePartialOverlap(t *testing.T) {
	// C1={1,2}, C2={2,3}: (1,2),(1,3),(2,3) = 3.
	cands := [][]graph.VertexID{{1, 2}, {2, 3}}
	if got := countInjective(cands); got != 3 {
		t.Fatalf("countInjective = %d, want 3", got)
	}
}

func TestCountInjectiveEmpty(t *testing.T) {
	if got := countInjective(nil); got != 1 {
		t.Fatalf("countInjective(nil) = %d, want 1 (empty product)", got)
	}
	if got := countInjective([][]graph.VertexID{{}}); got != 0 {
		t.Fatalf("countInjective with empty set = %d, want 0", got)
	}
}

// bruteInjective counts SDRs by explicit enumeration for cross-checking.
func bruteInjective(cands [][]graph.VertexID) uint64 {
	used := map[graph.VertexID]bool{}
	var rec func(i int) uint64
	rec = func(i int) uint64 {
		if i == len(cands) {
			return 1
		}
		var total uint64
		for _, v := range cands[i] {
			if !used[v] {
				used[v] = true
				total += rec(i + 1)
				used[v] = false
			}
		}
		return total
	}
	return rec(0)
}

func TestCountInjectiveAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		cands := make([][]graph.VertexID, k)
		for i := range cands {
			m := rng.Intn(5)
			seen := map[graph.VertexID]bool{}
			for j := 0; j < m; j++ {
				v := graph.VertexID(rng.Intn(8))
				if !seen[v] {
					seen[v] = true
					cands[i] = append(cands[i], v)
				}
			}
		}
		return countInjective(cands) == bruteInjective(cands)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func buildFixture(t *testing.T, counting bool) (*CaLiG, *graph.Graph, *query.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	g := graph.New(30)
	for i := 0; i < 30; i++ {
		g.AddVertex(graph.Label(rng.Intn(2)))
	}
	for i := 0; i < 70; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(30)), graph.VertexID(rng.Intn(30)), 0)
	}
	// Star query with a tail: kernel = {center}, shells elsewhere.
	q := query.MustNew([]graph.Label{0, 1, 1, 0})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(0, 2, 0)
	q.MustAddEdge(0, 3, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	var a *CaLiG
	if counting {
		a = New(Counting())
	} else {
		a = New()
	}
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	return a, g, q
}

func TestKernelFirstOrdersAreConnectedPermutations(t *testing.T) {
	a, _, q := buildFixture(t, false)
	for i := range q.Edges() {
		for _, flip := range []bool{false, true} {
			eo := query.EdgeOrientation{Index: i, Flipped: flip}
			ord := a.Order(eo)
			if len(ord) != q.NumVertices() {
				t.Fatalf("order %v wrong length", ord)
			}
			seen := map[query.VertexID]bool{}
			for _, v := range ord {
				if seen[v] {
					t.Fatalf("duplicate in order %v", ord)
				}
				seen[v] = true
			}
			for pos := 2; pos < len(ord); pos++ {
				connected := false
				for _, nb := range q.Neighbors(ord[pos]) {
					for p := 0; p < pos; p++ {
						if ord[p] == nb.ID {
							connected = true
						}
					}
				}
				if !connected {
					t.Fatalf("order %v disconnected at %d", ord, pos)
				}
			}
		}
	}
}

func TestCountingModeDepth(t *testing.T) {
	a, _, q := buildFixture(t, true)
	for code, cd := range a.countDepth {
		ord := a.Order(csm.DecodeOrder(uint16(code)))
		// Every position from countDepth on must be a shell.
		for pos := int(cd); pos < len(ord); pos++ {
			if !a.isShell[ord[pos]] {
				t.Fatalf("order %v: non-shell at counted suffix position %d", ord, pos)
			}
		}
		_ = q
	}
}

// TestCountingEqualsEnumeration: counting mode and full enumeration must
// report identical totals on random update streams.
func TestCountingEqualsEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g0 := graph.New(25)
	for i := 0; i < 25; i++ {
		g0.AddVertex(graph.Label(rng.Intn(2)))
	}
	for i := 0; i < 50; i++ {
		g0.AddEdge(graph.VertexID(rng.Intn(25)), graph.VertexID(rng.Intn(25)), 0)
	}
	q := query.MustNew([]graph.Label{0, 1, 1, 0, 1})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(0, 2, 0)
	q.MustAddEdge(0, 3, 0)
	q.MustAddEdge(3, 4, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}

	run := func(counting bool) (uint64, uint64) {
		var a *CaLiG
		if counting {
			a = New(Counting())
		} else {
			a = New()
		}
		eng := core.New(a, core.Threads(1), core.InterUpdate(false))
		g := g0.Clone()
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		var pos, neg uint64
		for i := 0; i < 40; i++ {
			u := graph.VertexID(rng.Intn(25))
			v := graph.VertexID(rng.Intn(25))
			var upd stream.Update
			if g.HasEdge(u, v) {
				upd = stream.Update{Op: stream.DeleteEdge, U: u, V: v}
			} else if u != v {
				upd = stream.Update{Op: stream.AddEdge, U: u, V: v}
			} else {
				continue
			}
			d, err := eng.ProcessUpdate(context.Background(), upd)
			if err != nil {
				t.Fatal(err)
			}
			pos += d.Positive
			neg += d.Negative
		}
		return pos, neg
	}
	p1, n1 := run(false)
	p2, n2 := run(true)
	if p1 != p2 || n1 != n2 {
		t.Fatalf("enumeration (+%d,-%d) != counting (+%d,-%d)", p1, n1, p2, n2)
	}
}

// TestLIGWouldChangeExact: wouldChange must predict exactly whether the
// incremental maintenance changes any lit entry.
func TestLIGWouldChangeExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(15)
		for i := 0; i < 15; i++ {
			g.AddVertex(graph.Label(rng.Intn(2)))
		}
		for i := 0; i < 25; i++ {
			g.AddEdge(graph.VertexID(rng.Intn(15)), graph.VertexID(rng.Intn(15)), 0)
		}
		q := query.MustNew([]graph.Label{0, 1, 0})
		q.MustAddEdge(0, 1, 0)
		q.MustAddEdge(1, 2, 0)
		if q.Finalize() != nil {
			return false
		}
		ix := newLIG(g, q)
		for step := 0; step < 15; step++ {
			u := graph.VertexID(rng.Intn(15))
			v := graph.VertexID(rng.Intn(15))
			var upd stream.Update
			if g.HasEdge(u, v) {
				upd = stream.Update{Op: stream.DeleteEdge, U: u, V: v}
			} else if u != v {
				upd = stream.Update{Op: stream.AddEdge, U: u, V: v}
			} else {
				continue
			}
			predicted := ix.wouldChange(upd)
			before := ligSnapshot(ix)
			if upd.Apply(g) != nil {
				continue
			}
			ix.apply(upd)
			changed := ligSnapshot(ix) != before
			// wouldChange must never under-predict; (it is exact for the
			// 1-hop lighting rule, so equality is asserted).
			if changed != predicted {
				return false
			}
		}
		return ix.consistent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func ligSnapshot(ix *lig) string {
	out := make([]byte, 0, 64)
	for u := range ix.lit {
		for _, b := range ix.lit[u] {
			if b {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}
	return string(out)
}

// TestCaLiGIgnoresEdgeLabels: CaLiG's deltas must match the reference with
// IgnoreELabels semantics even on edge-labeled graphs.
func TestCaLiGIgnoresEdgeLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.New(20)
	for i := 0; i < 20; i++ {
		g.AddVertex(graph.Label(rng.Intn(2)))
	}
	for i := 0; i < 40; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(20)), graph.VertexID(rng.Intn(20)), graph.Label(rng.Intn(3)))
	}
	q := query.MustNew([]graph.Label{0, 1, 0})
	q.MustAddEdge(0, 1, 1)
	q.MustAddEdge(1, 2, 2)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	a := New()
	eng := core.New(a, core.Threads(1), core.InterUpdate(false))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		u := graph.VertexID(rng.Intn(20))
		v := graph.VertexID(rng.Intn(20))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		upd := stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: graph.Label(rng.Intn(3))}
		wantPos, _ := refmatch.Delta(g, q, upd, refmatch.Options{IgnoreELabels: true})
		d, err := eng.ProcessUpdate(context.Background(), upd)
		if err != nil {
			t.Fatal(err)
		}
		if d.Positive != wantPos {
			t.Fatalf("update %v: +%d, reference +%d", upd, d.Positive, wantPos)
		}
	}
}

func TestVertexCoverIsRecorded(t *testing.T) {
	a, _, q := buildFixture(t, false)
	kernels, shells := q.VertexCover()
	var fromAlgo []query.VertexID
	for v, sh := range a.isShell {
		if sh {
			fromAlgo = append(fromAlgo, query.VertexID(v))
		}
	}
	sort.Slice(fromAlgo, func(i, j int) bool { return fromAlgo[i] < fromAlgo[j] })
	if len(fromAlgo) != len(shells) {
		t.Fatalf("shells = %v, query.VertexCover shells = %v (kernels %v)", fromAlgo, shells, kernels)
	}
}
