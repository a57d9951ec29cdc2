package incisomatch

import (
	"context"
	"math/rand"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/refmatch"
)

// TestDeltaMatchesReference: recomputation must produce the exact ΔM.
func TestDeltaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := algotest.RandomGraph(rng, 22, 45, 2, 2)
		q := algotest.RandomQuery(rng, g, 4)
		if q == nil {
			continue
		}
		eng := core.New(New(), core.Threads(1), core.InterUpdate(false))
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		for i, upd := range algotest.RandomStream(rng, g, 25, 0.7, 2) {
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

// TestRecomputationIsMoreExpensive: on the same workload IncIsoMatch must
// visit at least as many search nodes as the edge-rooted GraphFlow — the
// motivation gap for incremental CSM.
func TestRecomputationIsMoreExpensive(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := algotest.RandomGraph(rng, 40, 120, 2, 1)
	q := algotest.RandomQuery(rng, g, 4)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g, 30, 0.8, 1)

	run := func(a csm.Algorithm) uint64 {
		eng := core.New(a, core.Threads(1), core.InterUpdate(false))
		if err := eng.Init(g.Clone(), q); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		return eng.Stats().Nodes
	}
	inc := run(New())
	gf := run(algotest.Factories()[2].New()) // GraphFlow
	if inc < gf {
		t.Fatalf("IncIsoMatch visited %d nodes, GraphFlow %d — recomputation should cost more", inc, gf)
	}
}

func TestEverythingIsUnsafe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := algotest.RandomGraph(rng, 10, 20, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	a := New()
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	for _, upd := range algotest.RandomStream(rng, g, 10, 0.5, 1) {
		if !a.AffectsADS(upd) {
			t.Fatalf("recomputation baseline classified %v safe", upd)
		}
	}
}
