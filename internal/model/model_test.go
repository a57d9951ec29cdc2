package model

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPaperWorkedExample reproduces Equation (3): with N = M = 10 and
// γ = 0.4 the runtime is |ΔG|(0.64 T_ADS + 0.06 T_FM).
func TestPaperWorkedExample(t *testing.T) {
	ads, fm := Coefficients(Params{Gamma: 0.4, M: 10, N: 10})
	if math.Abs(ads-0.64) > 1e-12 {
		t.Fatalf("ADS coefficient = %v, want 0.64", ads)
	}
	if math.Abs(fm-0.06) > 1e-12 {
		t.Fatalf("FM coefficient = %v, want 0.06", fm)
	}
	rt := totalTime(Params{Updates: 1000, Gamma: 0.4, M: 10, N: 10, TADS: 2, TFM: 50})
	want := 1000 * (0.64*2 + 0.06*50)
	if math.Abs(rt-want) > 1e-9 {
		t.Fatalf("totalTime = %v, want %v", rt, want)
	}
}

// TestPaperSafeProbability reproduces the LiveJournal estimate of §4.3:
// 6 query edges, 30 vertex labels, 1 edge label -> P(unsafe) = 6/900,
// P(safe) ≈ 99.33%.
func TestPaperSafeProbability(t *testing.T) {
	p := SafeProbability(6, 30, 1)
	if math.Abs(p-(1-6.0/900.0)) > 1e-12 {
		t.Fatalf("SafeProbability = %v, want %v", p, 1-6.0/900.0)
	}
	if p < 0.9933-0.0001 || p > 0.9934 {
		t.Fatalf("SafeProbability = %v, want ≈ 0.9933", p)
	}
}

func TestRuntimeSequentialIdentity(t *testing.T) {
	// With M = N = 1 the model reduces to |ΔG|(T_ADS + (1-γ)T_FM).
	p := Params{Updates: 10, Gamma: 0.5, M: 1, N: 1, TADS: 3, TFM: 7}
	want := 10 * (3 + 0.5*7)
	if got := totalTime(p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("totalTime = %v, want %v", got, want)
	}
}

func TestSpeedupProperties(t *testing.T) {
	f := func(g8 uint8, m8, n8 uint8) bool {
		gamma := float64(g8%101) / 100
		m := 1 + int(m8%64)
		n := 1 + int(n8%64)
		p := Params{Updates: 100, Gamma: gamma, M: m, N: n, TADS: 1, TFM: 20}
		s := Speedup(p)
		// Parallelism never hurts in the ideal model, and is bounded by
		// max(M, N).
		if s < 1-1e-9 {
			return false
		}
		bound := float64(m)
		if n > m {
			bound = float64(n)
		}
		return s <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupMonotoneInThreads(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		s := Speedup(Params{Updates: 1, Gamma: 0.4, M: n, N: n, TADS: 1, TFM: 30})
		if s < prev {
			t.Fatalf("speedup not monotone at N=%d: %v < %v", n, s, prev)
		}
		prev = s
	}
}

func TestSafeProbabilityBounds(t *testing.T) {
	if p := SafeProbability(1000000, 1, 1); p != 0 {
		t.Fatalf("oversaturated unsafe probability should clamp: %v", p)
	}
	if p := SafeProbability(0, 5, 5); p != 1 {
		t.Fatalf("no query edges -> always safe: %v", p)
	}
	if p := SafeProbability(6, 0, 0); p < 0 || p > 1 {
		t.Fatalf("degenerate alphabets: %v", p)
	}
}

func TestReferenceTable(t *testing.T) {
	rows := ReferenceTable()
	if len(rows) != 10 {
		t.Fatalf("Table 1 has %d CPU rows, want 10", len(rows))
	}
	parallel := map[string]bool{}
	for _, r := range rows {
		parallel[r.System] = r.Parallel
	}
	// Spot-check Table 1's parallelism column.
	for sys, want := range map[string]bool{
		"TurboFlux": false, "Symbi": false, "CaLiG": false, "NewSP": false,
		"Graphflow": true, "Mnemonic": true, "RapidFlow": true,
	} {
		if parallel[sys] != want {
			t.Fatalf("%s parallel = %v, want %v", sys, parallel[sys], want)
		}
	}
}
