package dataset

import (
	"math"
	"testing"

	"paracosm/internal/graph"
	"paracosm/internal/stream"
)

func TestSpecsMatchPaperTable5(t *testing.T) {
	cases := []struct {
		spec Spec
		v, e int
		vl   int
		el   int
		davg float64
	}{
		{AmazonSpec, 403_394, 2_433_408, 6, 1, 12.06},
		{LiveJournalSpec, 4_847_571, 42_841_237, 30, 1, 17.68},
		{LSBenchSpec, 5_210_099, 20_270_676, 1, 44, 7.78},
		{OrkutSpec, 3_072_441, 117_185_083, 20, 20, 76.28}, // paper rounds d(G) to 20; 2E/V is 76.28
	}
	for _, c := range cases {
		if c.spec.V != c.v || c.spec.E != c.e || c.spec.VLabels != c.vl || c.spec.ELabels != c.el {
			t.Errorf("%s spec mismatch: %+v", c.spec.Name, c.spec)
		}
		d := 2 * float64(c.spec.E) / float64(c.spec.V)
		if math.Abs(d-c.davg) > 0.01 {
			t.Errorf("%s: 2E/V = %.2f, want %.2f", c.spec.Name, d, c.davg)
		}
	}
}

func TestCustomRespectsScaleAndHoldout(t *testing.T) {
	d := Custom(Spec{Name: "t", V: 100_000, E: 500_000, VLabels: 5, ELabels: 2},
		Scale(0.01), Seed(7), HoldoutFraction(0.1))
	nV := d.Graph.NumVertices()
	if nV != 1000 {
		t.Fatalf("vertices = %d, want 1000", nV)
	}
	total := d.Graph.NumEdges() + len(d.Stream)
	if total < 4900 || total > 5000 {
		t.Fatalf("total edges = %d, want ~5000", total)
	}
	if len(d.Stream) != total/10 {
		t.Fatalf("stream length %d, want %d", len(d.Stream), total/10)
	}
}

func TestStreamAppliesCleanly(t *testing.T) {
	d := AmazonLike(Scale(0.003), Seed(3))
	g := d.Graph.Clone()
	if err := d.Stream.ApplyAll(g); err != nil {
		t.Fatalf("insertion stream does not apply: %v", err)
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a := LiveJournalLike(Scale(0.001), Seed(42))
	b := LiveJournalLike(Scale(0.001), Seed(42))
	if a.Graph.NumEdges() != b.Graph.NumEdges() || len(a.Stream) != len(b.Stream) {
		t.Fatal("same seed produced different datasets")
	}
	for i := range a.Stream {
		if a.Stream[i] != b.Stream[i] {
			t.Fatalf("stream diverges at %d", i)
		}
	}
	c := LiveJournalLike(Scale(0.001), Seed(43))
	same := c.Graph.NumEdges() == a.Graph.NumEdges() && len(c.Stream) == len(a.Stream)
	if same {
		diff := false
		for i := range a.Stream {
			if a.Stream[i] != c.Stream[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical streams")
		}
	}
}

func TestLabelAlphabets(t *testing.T) {
	d := OrkutLike(Scale(0.0005), Seed(5))
	seenV := map[graph.Label]bool{}
	for v := 0; v < d.Graph.NumVertices(); v++ {
		l := d.Graph.Label(graph.VertexID(v))
		if int(l) >= OrkutSpec.VLabels {
			t.Fatalf("vertex label %d out of alphabet", l)
		}
		seenV[l] = true
	}
	if len(seenV) < OrkutSpec.VLabels/2 {
		t.Fatalf("only %d vertex labels in use", len(seenV))
	}
	for v := 0; v < d.Graph.NumVertices(); v++ {
		for _, nb := range d.Graph.Neighbors(graph.VertexID(v)) {
			if int(nb.ELabel) >= OrkutSpec.ELabels {
				t.Fatalf("edge label %d out of alphabet", nb.ELabel)
			}
		}
	}
}

func TestDegreeSkew(t *testing.T) {
	d := LiveJournalLike(Scale(0.002), Seed(9))
	live, max := 0, 0
	for v := 0; v < d.Graph.NumVertices(); v++ {
		if d.Graph.Alive(graph.VertexID(v)) {
			live++
			if deg := d.Graph.Degree(graph.VertexID(v)); deg > max {
				max = deg
			}
		}
	}
	avg := 2 * float64(d.Graph.NumEdges()) / float64(live)
	if max < int(5*avg) {
		t.Fatalf("max degree %d not heavy-tailed vs avg %.1f", max, avg)
	}
}

func TestRandomQuery(t *testing.T) {
	d := AmazonLike(Scale(0.003), Seed(11))
	for size := 4; size <= 10; size++ {
		q, err := d.RandomQuery(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if q.NumVertices() != size {
			t.Fatalf("size %d: got %d vertices", size, q.NumVertices())
		}
		if q.NumEdges() < size-1 {
			t.Fatalf("size %d: only %d edges", size, q.NumEdges())
		}
	}
	if _, err := d.RandomQuery(1); err == nil {
		t.Fatal("size 1 accepted")
	}
	if _, err := d.RandomQuery(99); err == nil {
		t.Fatal("oversize accepted")
	}
}

// Queries are extracted from the data graph, so each must have at least one
// match in it — the induced embedding itself.
func TestRandomQueryLabelsComeFromGraph(t *testing.T) {
	d := LSBenchLike(Scale(0.001), Seed(13))
	q, err := d.RandomQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < q.NumVertices(); u++ {
		if len(d.Graph.VerticesWithLabel(q.Label(uint8(u)))) == 0 {
			t.Fatalf("query label %d absent from data graph", q.Label(uint8(u)))
		}
	}
}

func TestMixedStream(t *testing.T) {
	d := AmazonLike(Scale(0.002), Seed(17))
	ms := d.MixedStream(0.5)
	ops := map[stream.Op]int{}
	for _, u := range ms {
		ops[u.Op]++
	}
	if ops[stream.AddEdge] != len(d.Stream) {
		t.Fatalf("insertions = %d, want %d", ops[stream.AddEdge], len(d.Stream))
	}
	wantDel := len(d.Stream) / 2
	if ops[stream.DeleteEdge] != wantDel {
		t.Fatalf("deletions = %d, want %d", ops[stream.DeleteEdge], wantDel)
	}
	g := d.Graph.Clone()
	if err := ms.ApplyAll(g); err != nil {
		t.Fatalf("mixed stream does not apply: %v", err)
	}
}

func TestAllReturnsFourDatasets(t *testing.T) {
	ds := All(Scale(0.0005), Seed(1))
	if len(ds) != 4 {
		t.Fatalf("All returned %d datasets", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
	}
	for _, want := range []string{"Amazon", "LiveJournal", "LSBench", "Orkut"} {
		if !names[want] {
			t.Fatalf("missing dataset %s", want)
		}
	}
}

func TestDeletionHeavyStream(t *testing.T) {
	d := AmazonLike(Scale(0.003), Seed(9))
	s := d.DeletionHeavyStream(0.4)
	if len(s) <= len(d.Stream) {
		t.Fatalf("churn stream length %d, want > holdout %d", len(s), len(d.Stream))
	}
	dels := 0
	for _, u := range s {
		if u.Op == stream.DeleteEdge {
			dels++
		}
	}
	ratio := float64(dels) / float64(len(s))
	if ratio < 0.25 || ratio > 0.55 {
		t.Fatalf("delete ratio %.2f, want around 0.4", ratio)
	}
	g := d.Graph.Clone()
	if err := s.ApplyAll(g); err != nil {
		t.Fatalf("deletion-heavy stream does not apply cleanly: %v", err)
	}
	// Deterministic: an identically-seeded dataset produces the same stream.
	s2 := AmazonLike(Scale(0.003), Seed(9)).DeletionHeavyStream(0.4)
	if len(s) != len(s2) {
		t.Fatalf("nondeterministic length: %d vs %d", len(s), len(s2))
	}
	for i := range s {
		if s[i] != s2[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, s[i], s2[i])
		}
	}
}

func TestBurstyStream(t *testing.T) {
	d := AmazonLike(Scale(0.003), Seed(9))
	const burst = 5
	s := d.BurstyStream(burst)
	if len(s) != burst*len(d.Stream) {
		t.Fatalf("bursty stream length %d, want %d", len(s), burst*len(d.Stream))
	}
	// Each burst alternates +e/-e on one edge, starting with the insert.
	for i := 0; i < burst; i++ {
		want := stream.AddEdge
		if i%2 == 1 {
			want = stream.DeleteEdge
		}
		if s[i].Op != want {
			t.Fatalf("burst position %d has op %v, want %v", i, s[i].Op, want)
		}
		if s[i].U != s[0].U || s[i].V != s[0].V {
			t.Fatalf("burst position %d touches (%d,%d), want (%d,%d)", i, s[i].U, s[i].V, s[0].U, s[0].V)
		}
	}
	g := d.Graph.Clone()
	if err := s.ApplyAll(g); err != nil {
		t.Fatalf("bursty stream does not apply cleanly: %v", err)
	}
	if d.BurstyStream(0); len(d.BurstyStream(1)) != len(d.Stream) {
		t.Fatal("burstLen 1 must reproduce the holdout stream length")
	}
}
