package algotest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

// TestDeltaMatchesReference cross-validates every algorithm's incremental
// match counts against the recompute-and-diff reference on randomized
// graphs, queries and mixed insert/delete streams. This is the central
// correctness property of the whole repository: if this passes, the
// incremental semantics of Algorithm 1 are implemented faithfully.
func TestDeltaMatchesReference(t *testing.T) {
	for _, f := range Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := RandomGraph(rng, 24, 50, 1+rng.Intn(3), 1+rng.Intn(2))
				q := RandomQuery(rng, g, 3+rng.Intn(3))
				if q == nil {
					continue
				}
				s := RandomStream(rng, g, 30, 0.7, 2)
				opt := refmatch.Options{IgnoreELabels: f.IgnoreELabels}

				algo := f.New()
				eng := core.New(algo, core.Threads(1), core.InterUpdate(false))
				if err := eng.Init(g, q); err != nil {
					t.Fatalf("seed %d: Init: %v", seed, err)
				}
				for i, upd := range s {
					wantPos, wantNeg := refmatch.Delta(g, q, upd, opt)
					d, err := eng.ProcessUpdate(context.Background(), upd)
					if err != nil {
						t.Fatalf("seed %d update %d (%v): %v", seed, i, upd, err)
					}
					if d.Positive != wantPos || d.Negative != wantNeg {
						t.Fatalf("seed %d update %d (%v): delta = (+%d,-%d), reference (+%d,-%d)",
							seed, i, upd, d.Positive, d.Negative, wantPos, wantNeg)
					}
				}
			}
		})
	}
}

// TestIncrementalADSConsistency verifies that incrementally maintained
// auxiliary structures equal a from-scratch rebuild after every update.
func TestIncrementalADSConsistency(t *testing.T) {
	for _, f := range Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			algo := f.New()
			reb, ok := algo.(csm.Rebuilder)
			if !ok {
				t.Skip("no ADS to rebuild")
			}
			for seed := int64(100); seed < 106; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := RandomGraph(rng, 30, 70, 2, 2)
				q := RandomQuery(rng, g, 4)
				if q == nil {
					continue
				}
				algo = f.New()
				reb = algo.(csm.Rebuilder)
				eng := core.New(algo, core.Threads(1), core.InterUpdate(false))
				if err := eng.Init(g, q); err != nil {
					t.Fatal(err)
				}
				for i, upd := range RandomStream(rng, g, 25, 0.6, 2) {
					if _, err := eng.ProcessUpdate(context.Background(), upd); err != nil {
						t.Fatalf("seed %d update %d: %v", seed, i, err)
					}
					if !reb.RebuildADS() {
						t.Fatalf("seed %d: ADS inconsistent after update %d (%v)", seed, i, upd)
					}
				}
			}
		})
	}
}

// TestSafetySoundness is the key inter-update property: any update the
// three-stage classifier deems safe (fails label/degree filters, or passes
// them but AffectsADS is false) must produce an empty ΔM.
func TestSafetySoundness(t *testing.T) {
	for _, f := range Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			safeSeen := 0
			for seed := int64(200); seed < 212; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := RandomGraph(rng, 26, 55, 3, 2)
				q := RandomQuery(rng, g, 4)
				if q == nil {
					continue
				}
				opt := refmatch.Options{IgnoreELabels: f.IgnoreELabels}
				algo := f.New()
				eng := core.New(algo, core.Threads(1), core.InterUpdate(false))
				if err := eng.Init(g, q); err != nil {
					t.Fatal(err)
				}
				for i, upd := range RandomStream(rng, g, 30, 0.7, 2) {
					safe := !algo.AffectsADS(upd)
					if safe {
						safeSeen++
						pos, neg := refmatch.Delta(g, q, upd, opt)
						if pos != 0 || neg != 0 {
							t.Fatalf("seed %d update %d (%v): classified safe but ΔM = (+%d,-%d)",
								seed, i, upd, pos, neg)
						}
					}
					if _, err := eng.ProcessUpdate(context.Background(), upd); err != nil {
						t.Fatal(err)
					}
				}
			}
			if safeSeen == 0 {
				t.Error("classifier never returned safe; filter is vacuous")
			}
		})
	}
}

// TestAlgorithmsAgreeOnMatchSets compares the exact multisets of matches
// reported by full-enumeration algorithms for every update against the
// reference diff (not only the counts).
func TestAlgorithmsAgreeOnMatchSets(t *testing.T) {
	for _, f := range Factories() {
		if f.Name == "CaLiG-counting" {
			continue // counting mode does not materialize embeddings
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(77))
			g := RandomGraph(rng, 20, 45, 2, 1)
			q := RandomQuery(rng, g, 4)
			if q == nil {
				t.Skip("no query extracted")
			}
			opt := refmatch.Options{IgnoreELabels: f.IgnoreELabels}
			algo := f.New()
			eng := core.New(algo, core.Threads(1), core.InterUpdate(false))
			if err := eng.Init(g, q); err != nil {
				t.Fatal(err)
			}
			var got []string
			eng.OnMatch = func(s *csm.State, count uint64, positive bool) {
				key := fmt.Sprintf("%v", matchKey(s, q.NumVertices(), positive))
				got = append(got, key)
			}
			for _, upd := range RandomStream(rng, g, 20, 0.7, 1) {
				got = got[:0]
				before := refmatch.Matches(g, q, opt)
				h := g.Clone()
				if err := upd.Apply(h); err != nil {
					t.Fatal(err)
				}
				after := refmatch.Matches(h, q, opt)
				var want []string
				for k, c := range after {
					for d := before[k]; d < c; d++ {
						want = append(want, fmt.Sprintf("%v", keyString(k, true)))
					}
				}
				for k, c := range before {
					for d := after[k]; d < c; d++ {
						want = append(want, fmt.Sprintf("%v", keyString(k, false)))
					}
				}
				if _, err := eng.ProcessUpdate(context.Background(), upd); err != nil {
					t.Fatal(err)
				}
				sort.Strings(got)
				sort.Strings(want)
				if len(got) != len(want) {
					t.Fatalf("update %v: %d matches reported, reference %d", upd, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("update %v: match multiset mismatch:\n got %v\nwant %v", upd, got, want)
					}
				}
			}
		})
	}
}

func matchKey(s *csm.State, n int, positive bool) string {
	b := make([]byte, 0, 4*n+1)
	for u := 0; u < n; u++ {
		v := s.Map[u]
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	if positive {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return string(b)
}

func keyString(k string, positive bool) string {
	b := []byte(k)
	if positive {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return string(b)
}

// TestVertexUpdatesAreNoOps: isolated vertex insertion/deletion never
// yields matches and keeps ADS consistent.
func TestVertexUpdatesAreNoOps(t *testing.T) {
	for _, f := range Factories() {
		rng := rand.New(rand.NewSource(5))
		g := RandomGraph(rng, 20, 40, 2, 1)
		q := RandomQuery(rng, g, 3)
		if q == nil {
			t.Skip("no query")
		}
		algo := f.New()
		eng := core.New(algo, core.Threads(1), core.InterUpdate(false))
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		d, err := eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddVertex, VLabel: 1})
		if err != nil || d.Positive != 0 || d.Negative != 0 {
			t.Fatalf("%s: AddVertex delta (%v, %v)", f.Name, d, err)
		}
		newV := graph.VertexID(g.NumVertices() - 1)
		d, err = eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.DeleteVertex, U: newV})
		if err != nil || d.Positive != 0 || d.Negative != 0 {
			t.Fatalf("%s: DeleteVertex delta (%v, %v)", f.Name, d, err)
		}
		if reb, ok := algo.(csm.Rebuilder); ok && !reb.RebuildADS() {
			t.Fatalf("%s: ADS inconsistent after vertex ops", f.Name)
		}
		// An edge touching the re-grown vertex id space must work.
		d, err = eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddVertex, VLabel: q.Label(0)})
		if err != nil {
			t.Fatal(err)
		}
		_ = d
	}
}
