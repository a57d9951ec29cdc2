package sjtree_test

import (
	"context"
	"math/rand"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/algo/sjtree"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

// TestDeltaMatchesReference: the join-based deltas must equal the
// recompute-and-diff reference on random mixed streams.
func TestDeltaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := algotest.RandomGraph(rng, 20, 40, 2, 2)
		q := algotest.RandomQuery(rng, g, 4)
		if q == nil {
			continue
		}
		eng := core.New(sjtree.New(), core.Threads(1), core.InterUpdate(false))
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		for i, upd := range algotest.RandomStream(rng, g, 30, 0.65, 2) {
			wantPos, wantNeg := refmatch.Delta(g, q, upd, refmatch.Options{})
			d, err := eng.ProcessUpdate(context.Background(), upd)
			if err != nil {
				t.Fatalf("seed %d update %d: %v", seed, i, err)
			}
			if d.Positive != wantPos || d.Negative != wantNeg {
				t.Fatalf("seed %d update %d (%v): (+%d,-%d), reference (+%d,-%d)",
					seed, i, upd, d.Positive, d.Negative, wantPos, wantNeg)
			}
		}
	}
}

// TestTablesMatchRebuild: incremental table maintenance equals a rebuild
// after every update.
func TestTablesMatchRebuild(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := algotest.RandomGraph(rng, 18, 36, 2, 1)
		q := algotest.RandomQuery(rng, g, 4)
		if q == nil {
			continue
		}
		a := sjtree.New()
		eng := core.New(a, core.Threads(1), core.InterUpdate(false))
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		for i, upd := range algotest.RandomStream(rng, g, 25, 0.6, 1) {
			if _, err := eng.ProcessUpdate(context.Background(), upd); err != nil {
				t.Fatal(err)
			}
			if !a.RebuildADS() {
				t.Fatalf("seed %d: tables inconsistent after update %d (%v)", seed, i, upd)
			}
		}
	}
}

// TestInitialTablesMaterializeAllMatches: after Build, the root table
// holds exactly the static match set.
func TestInitialTablesMaterializeAllMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := algotest.RandomGraph(rng, 20, 45, 2, 1)
	q := algotest.RandomQuery(rng, g, 4)
	if q == nil {
		t.Skip("no query")
	}
	a := sjtree.New()
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	sizes := a.TableSizes()
	if got, want := uint64(sizes[len(sizes)-1]), refmatch.Count(g, q, refmatch.Options{}); got != want {
		t.Fatalf("root table has %d entries, reference counts %d matches", got, want)
	}
	// Tables grow with join level coverage semantics: every level is
	// non-empty only if the previous one is.
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > 0 && sizes[i-1] == 0 {
			t.Fatalf("level %d non-empty above empty level: %v", i, sizes)
		}
	}
}

// TestJoinOrderIsConnected: each join edge shares a vertex with the
// prefix.
func TestJoinOrderIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := algotest.RandomGraph(rng, 15, 30, 2, 1)
	q := algotest.RandomQuery(rng, g, 5)
	if q == nil {
		t.Skip("no query")
	}
	a := sjtree.New()
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	order := a.JoinOrder()
	if len(order) != q.NumEdges() {
		t.Fatalf("join order covers %d of %d edges", len(order), q.NumEdges())
	}
	seen := map[uint8]bool{order[0].U: true, order[0].V: true}
	for _, e := range order[1:] {
		if !seen[e.U] && !seen[e.V] {
			t.Fatalf("join order disconnected at edge (%d,%d)", e.U, e.V)
		}
		seen[e.U], seen[e.V] = true, true
	}
}

func TestAffectsADSLabelOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := algotest.RandomGraph(rng, 15, 30, 3, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	a := sjtree.New()
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	if a.AffectsADS(stream.Update{Op: stream.AddVertex}) {
		t.Fatal("vertex op classified unsafe")
	}
	// An edge whose labels match no query edge is safe.
	safeSeen, unsafeSeen := false, false
	for _, upd := range algotest.RandomStream(rng, g, 40, 0.7, 1) {
		if a.AffectsADS(upd) {
			unsafeSeen = true
		} else {
			safeSeen = true
			pos, neg := refmatch.Delta(g, q, upd, refmatch.Options{})
			if pos != 0 || neg != 0 {
				t.Fatalf("safe-classified %v has ΔM (+%d,-%d)", upd, pos, neg)
			}
		}
		if err := upd.Apply(g); err != nil {
			t.Fatal(err)
		}
		a.UpdateADS(upd)
	}
	if !safeSeen || !unsafeSeen {
		t.Skipf("degenerate stream (safe=%v unsafe=%v)", safeSeen, unsafeSeen)
	}
}

// TestMatchMultisets: emitted states carry the exact embeddings, signs
// included.
func TestMatchMultisets(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := algotest.RandomGraph(rng, 16, 32, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	a := sjtree.New()
	eng := core.New(a, core.Threads(1), core.InterUpdate(false))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	eng.OnMatch = func(s *csm.State, count uint64, positive bool) {
		k := ""
		for u := 0; u < q.NumVertices(); u++ {
			v := s.Map[u]
			k += string([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		if positive {
			got[k]++
		} else {
			got[k]--
		}
	}
	for _, upd := range algotest.RandomStream(rng, g, 25, 0.7, 1) {
		got = map[string]int{}
		before := refmatch.Matches(g, q, refmatch.Options{})
		h := g.Clone()
		if err := upd.Apply(h); err != nil {
			t.Fatal(err)
		}
		after := refmatch.Matches(h, q, refmatch.Options{})
		if _, err := eng.ProcessUpdate(context.Background(), upd); err != nil {
			t.Fatal(err)
		}
		for k, c := range after {
			if diff := c - before[k]; diff != 0 && got[k] != diff {
				t.Fatalf("match %q: got %+d, want %+d", k, got[k], diff)
			}
		}
		for k, c := range before {
			if diff := after[k] - c; diff != 0 && got[k] != diff {
				t.Fatalf("expired match %q: got %+d, want %+d", k, got[k], diff)
			}
		}
	}
}
