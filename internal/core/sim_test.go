package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

func TestLPTMakespanBasics(t *testing.T) {
	// Tasks 5,4,3,3,3 on 2 workers: LPT gives {5,3,3}=11? greedy:
	// 5->w0, 4->w1, 3->w1(7), 3->w0(8), 3->w1(10) => makespan 10.
	m, loads := lptMakespan([]uint64{5, 4, 3, 3, 3}, 2)
	if m != 10 {
		t.Fatalf("makespan = %d, want 10 (loads %v)", m, loads)
	}
	if loads[0]+loads[1] != 18 {
		t.Fatalf("loads don't conserve work: %v", loads)
	}
}

func TestLPTEmptyAndSingle(t *testing.T) {
	if m, _ := lptMakespan(nil, 4); m != 0 {
		t.Fatalf("empty makespan = %d", m)
	}
	if m, _ := lptMakespan([]uint64{7}, 4); m != 7 {
		t.Fatalf("single-task makespan = %d", m)
	}
}

func TestStaticMakespanRoundRobin(t *testing.T) {
	// Round-robin of 4,4,1,1 on 2 workers: w0={4,1}=5, w1={4,1}=5.
	m, _ := staticMakespan([]uint64{4, 4, 1, 1}, 2)
	if m != 5 {
		t.Fatalf("static makespan = %d, want 5", m)
	}
	// Adversarial order: 4,1,4,1 -> w0={4,4}=8.
	m, _ = staticMakespan([]uint64{4, 1, 4, 1}, 2)
	if m != 8 {
		t.Fatalf("static makespan = %d, want 8", m)
	}
}

// Property: LPT makespan is bounded below by both max task and total/n,
// above by total; and never exceeds the static round-robin makespan by
// more than rounding (LPT is the balanced schedule).
func TestMakespanProperties(t *testing.T) {
	f := func(raw []uint16, n8 uint8) bool {
		n := 1 + int(n8%16)
		tasks := make([]uint64, len(raw))
		var total, max uint64
		for i, r := range raw {
			tasks[i] = uint64(r)
			total += uint64(r)
			if uint64(r) > max {
				max = uint64(r)
			}
		}
		m, loads := lptMakespan(tasks, n)
		var sum uint64
		for _, l := range loads {
			sum += l
		}
		if sum != total {
			return false
		}
		if m < max || m > total {
			return len(tasks) == 0 && m == 0
		}
		lower := (total + uint64(n) - 1) / uint64(n)
		if m < lower {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateMatchesReference: simulate mode changes only timing, never
// results.
func TestSimulateMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g0 := algotest.RandomGraph(rng, 30, 70, 2, 1)
		q := algotest.RandomQuery(rng, g0, 4)
		if q == nil {
			continue
		}
		s := algotest.RandomStream(rng, g0, 40, 0.7, 1)
		wantPos, wantNeg := totalsVsReference(g0, q, s, refmatch.Options{})
		f := algotest.Factories()[2] // GraphFlow
		eng := New(f.New(), Threads(16), Simulate(true), InterUpdate(true), EscalateNodes(8))
		if err := eng.Init(g0.Clone(), q); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if st.Positive != wantPos || st.Negative != wantNeg {
			t.Fatalf("seed %d: simulate totals (+%d,-%d) != reference (+%d,-%d)",
				seed, st.Positive, st.Negative, wantPos, wantNeg)
		}
	}
}

// TestSimulatedSearchIsTheExecutors: the simulator searches through the
// real executor's drain loop and escalation rule, so for every algorithm,
// balanced or not, and with or without an OnMatch consumer (counted or
// enumerated last level), each update visits the same nodes and finds the
// same matches as on a real Threads(2) engine, and the same updates
// escalate.
func TestSimulatedSearchIsTheExecutors(t *testing.T) {
	escalated := 0
	for _, f := range algotest.Factories() {
		for _, balance := range []bool{true, false} {
			for _, consumer := range []bool{false, true} {
				rng := rand.New(rand.NewSource(11))
				g0 := algotest.RandomGraph(rng, 40, 260, 2, 1)
				q := algotest.RandomQuery(rng, g0, 4)
				if q == nil {
					t.Fatal("no query")
				}
				s := algotest.RandomStream(rng, g0, 40, 0.7, 1)
				run := func(opts ...Option) ([]csm.Delta, Stats) {
					var ds []csm.Delta
					opts = append(opts, InterUpdate(false), EscalateNodes(32), LoadBalance(balance),
						WithOnDelta(func(_ stream.Update, d csm.Delta, _ bool) { ds = append(ds, d) }))
					eng := New(f.New(), opts...)
					defer eng.Close()
					if consumer {
						eng.OnMatch = func(*csm.State, uint64, bool) {}
					}
					if err := eng.Init(g0.Clone(), q); err != nil {
						t.Fatal(err)
					}
					st, err := eng.Run(context.Background(), s)
					if err != nil {
						t.Fatal(err)
					}
					return ds, st
				}
				realD, realSt := run(Threads(2))
				simD, simSt := run(Threads(8), Simulate(true))
				name := fmt.Sprintf("%s balance=%v consumer=%v", f.Name, balance, consumer)
				for i := range s {
					r, m := realD[i], simD[i]
					if r.Positive != m.Positive || r.Negative != m.Negative || r.Nodes != m.Nodes {
						t.Fatalf("%s update %d (%v): simulated (+%d,-%d, %d nodes), real (+%d,-%d, %d nodes)",
							name, i, s[i], m.Positive, m.Negative, m.Nodes, r.Positive, r.Negative, r.Nodes)
					}
				}
				if simSt.Escalations != realSt.Escalations {
					t.Fatalf("%s: %d simulated escalations, %d real", name, simSt.Escalations, realSt.Escalations)
				}
				escalated += realSt.Escalations
			}
		}
	}
	if escalated == 0 {
		t.Fatal("no update escalated: the workload does not reach the parallel phase")
	}
}

// TestSimulatedMakespanOnHeavyTree: on a dense single-label workload the
// simulated 16-worker schedule must actually spread the search. The
// simulator escalates by the real executor's rule, so the prefix before
// escalation is sequential: the budget is set well below the trees'
// ~20 000 nodes, as the default 4 096 would cap any schedule near 5x. Both
// sides of the comparison come from ONE run's ThreadBusy — the makespan
// is the caller slot plus the busiest worker, the work is the sum of all
// slots — so the verdict does not depend on how two separately timed runs
// happened to be scheduled. (TestSimulatedThreadBusySpread holds balanced
// against unbalanced the same way, by per-run load ratios.)
func TestSimulatedMakespanOnHeavyTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g0 := algotest.RandomGraph(rng, 80, 1200, 1, 1)
	q := algotest.RandomQuery(rng, g0, 5)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g0, 10, 1.0, 1)
	f := algotest.Factories()[2] // GraphFlow

	eng := New(f.New(), Threads(16), Simulate(true), InterUpdate(false), EscalateNodes(256))
	if err := eng.Init(g0.Clone(), q); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Escalations == 0 {
		t.Fatalf("no update escalated (%d nodes over %d updates); workload misconfigured", st.Nodes, st.Updates)
	}
	if len(st.ThreadBusy) != 17 {
		t.Fatalf("ThreadBusy has %d slots, want 17 (caller + 16 workers)", len(st.ThreadBusy))
	}
	var work, busiest time.Duration
	for w, b := range st.ThreadBusy {
		work += b
		if w > 0 && b > busiest {
			busiest = b
		}
	}
	makespan := st.ThreadBusy[0] + busiest
	if work < 4*makespan {
		t.Fatalf("16 simulated workers: makespan %v against %v of work (%.1fx), want at least 4x",
			makespan, work, float64(work)/float64(makespan))
	}
}

// TestSimulatedThreadBusySpread: balanced simulation must produce tighter
// per-worker loads than unbalanced.
func TestSimulatedThreadBusySpread(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g0 := algotest.RandomGraph(rng, 80, 1200, 1, 1)
	q := algotest.RandomQuery(rng, g0, 5)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g0, 8, 1.0, 1)
	f := algotest.Factories()[2]

	spread := func(balance bool) float64 {
		eng := New(f.New(), Threads(8), Simulate(true), InterUpdate(false), LoadBalance(balance))
		if err := eng.Init(g0.Clone(), q); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		busy := eng.Stats().ThreadBusy
		if len(busy) == 0 {
			t.Skip("no parallel phase engaged")
		}
		min, max := busy[0], busy[0]
		for _, b := range busy {
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		if max == 0 {
			t.Skip("no load recorded")
		}
		return float64(max-min) / float64(max)
	}
	if sb, su := spread(true), spread(false); sb > su+0.05 {
		t.Fatalf("balanced spread %.3f worse than unbalanced %.3f", sb, su)
	}
}
