package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sortedNeighbors builds a strictly ID-sorted []Neighbor of n entries drawn
// from [0, span), with pseudo-random edge labels.
func sortedNeighbors(rng *rand.Rand, n, span int) []Neighbor {
	seen := make(map[VertexID]bool, n)
	out := make([]Neighbor, 0, n)
	for len(out) < n && len(seen) < span {
		v := VertexID(rng.Intn(span))
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, Neighbor{ID: v, ELabel: Label(rng.Intn(4))})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func idsOf(a []Neighbor) []VertexID {
	out := make([]VertexID, len(a))
	for i := range a {
		out[i] = a[i].ID
	}
	return out
}

// naiveIntersect is the reference: common IDs of two sorted ID sets.
func naiveIntersect(a, b []VertexID) []VertexID {
	in := make(map[VertexID]bool, len(b))
	for _, v := range b {
		in[v] = true
	}
	var out []VertexID
	for _, v := range a {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

func sameIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSearchAndAdvanceAgainstLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := sortedNeighbors(rng, rng.Intn(60), 200)
		ids := idsOf(a)
		for trial := 0; trial < 40; trial++ {
			v := VertexID(rng.Intn(210))
			want := 0
			for want < len(a) && a[want].ID < v {
				want++
			}
			if got := searchNeighbors(a, v); got != want {
				t.Errorf("searchNeighbors(%v, %d) = %d, want %d", a, v, got, want)
				return false
			}
			from := 0
			if len(a) > 0 {
				from = rng.Intn(len(a) + 1)
			}
			wantAdv := from
			for wantAdv < len(a) && a[wantAdv].ID < v {
				wantAdv++
			}
			if got, _ := AdvanceNeighbors(a, from, v); got != wantAdv {
				t.Errorf("AdvanceNeighbors(%v, %d, %d) = %d, want %d", a, from, v, got, wantAdv)
				return false
			}
			if got, _ := advanceIDs(ids, from, v); got != wantAdv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectKernelsAgree: every materializing kernel agrees with the
// naive reference across size skews covering both the merge and the gallop
// path, and the stats block counts each invocation.
func TestIntersectKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := [][2]int{{0, 10}, {3, 3}, {8, 60}, {5, 200}, {40, 45}, {1, 500}, {64, 64}, {2, 17}}
	var st KernelStats
	calls := uint64(0)
	for _, sz := range sizes {
		for trial := 0; trial < 20; trial++ {
			a := sortedNeighbors(rng, sz[0], 600)
			b := sortedNeighbors(rng, sz[1], 600)
			want := naiveIntersect(idsOf(a), idsOf(b))

			got := IntersectNeighborIDs(nil, a, b, &st)
			calls++
			if !sameIDs(got, want) {
				t.Fatalf("IntersectNeighborIDs(%v, %v) = %v, want %v", a, b, got, want)
			}
			got = IntersectIDsNeighbors(nil, idsOf(a), b, &st)
			calls++
			if !sameIDs(got, want) {
				t.Fatalf("IntersectIDsNeighbors(%v, %v) = %v, want %v", a, b, got, want)
			}
			// Swapped sides: the ID slice is the large one, so skewed sizes
			// gallop over it with advanceIDs.
			got = IntersectIDsNeighbors(nil, idsOf(b), a, &st)
			calls++
			if !sameIDs(got, want) {
				t.Fatalf("IntersectIDsNeighbors(%v, %v) = %v, want %v", idsOf(b), a, got, want)
			}
		}
	}
	c := st.KernelCounters
	if c.Intersections != calls {
		t.Fatalf("Intersections = %d, want %d", c.Intersections, calls)
	}
	if c.Galloped > c.Probes {
		t.Fatalf("Galloped %d > Probes %d", c.Galloped, c.Probes)
	}
}

// TestIntersectInPlaceFold: IntersectIDsNeighbors documents that
// dst == ids[:0] is safe; fold a k-way intersection through one buffer and
// compare with the naive reference.
func TestIntersectInPlaceFold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		runs := make([][]Neighbor, k)
		for i := range runs {
			runs[i] = sortedNeighbors(rng, 5+rng.Intn(80), 120)
		}
		out := idsOf(runs[0])
		want := idsOf(runs[0])
		for i := 1; i < k; i++ {
			out = IntersectIDsNeighbors(out[:0], out, runs[i], nil)
			want = naiveIntersect(want, idsOf(runs[i]))
		}
		return sameIDs(out, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelZeroAllocs mirrors TestProcessUpdateAllocations for the kernel
// layer: lookups, cursor advances and intersections into caller-provided
// buffers must not allocate, and NeighborsWithLabel must be a pure
// sub-slice view.
func TestKernelZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := sortedNeighbors(rng, 12, 400)
	big := sortedNeighbors(rng, 300, 400)
	ids := idsOf(small)
	dst := make([]VertexID, 0, 400)
	var st KernelStats

	g := New(64)
	for i := 0; i < 64; i++ {
		g.AddVertex(Label(i % 7))
	}
	for i := 1; i < 64; i++ {
		g.AddEdge(0, VertexID(i), Label(i%3))
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"NeighborsWithLabel", func() {
			for l := Label(0); l < 7; l++ {
				if len(g.NeighborsWithLabel(0, l)) == 0 {
					t.Fatal("empty label run")
				}
			}
		}},
		{"DegreeWithLabel", func() { _ = g.DegreeWithLabel(0, 3) }},
		{"AdvanceNeighbors", func() { _, _ = AdvanceNeighbors(big, 0, 399) }},
		{"IntersectNeighborIDs/merge", func() { dst = IntersectNeighborIDs(dst[:0], big, big, &st) }},
		{"IntersectNeighborIDs/gallop", func() { dst = IntersectNeighborIDs(dst[:0], small, big, &st) }},
		{"IntersectIDsNeighbors", func() { dst = IntersectIDsNeighbors(dst[:0], ids, big, &st) }},
	}
	for _, c := range cases {
		c.fn() // warm up
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
}

func BenchmarkNeighborsWithLabel(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const nv, deg = 2048, 256
	g := New(nv)
	for i := 0; i < nv; i++ {
		g.AddVertex(Label(i % 16))
	}
	for i := 0; i < deg; i++ {
		g.AddEdge(0, VertexID(1+rng.Intn(nv-1)), 0)
	}
	b.Run("labelSlice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.NeighborsWithLabel(0, Label(i%16))
		}
	})
	b.Run("scanFilter", func(b *testing.B) {
		// The pre-partitioning access pattern, for comparison.
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			l := Label(i % 16)
			for _, nb := range g.Neighbors(0) {
				if g.Label(nb.ID) == l {
					n++
				}
			}
		}
		_ = n
	})
}

// BenchmarkIntersectCrossover measures the adaptive kernel against an
// always-merge reference across size ratios, exhibiting where galloping
// starts to win (GallopRatio).
func BenchmarkIntersectCrossover(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const small = 32
	for _, ratio := range []int{1, 4, 8, 16, 64} {
		a := sortedNeighbors(rng, small, small*ratio*4)
		bb := sortedNeighbors(rng, small*ratio, small*ratio*4)
		dst := make([]VertexID, 0, small)
		b.Run("adaptive/ratio="+itoa(ratio), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = IntersectNeighborIDs(dst[:0], a, bb, nil)
			}
		})
		b.Run("merge/ratio="+itoa(ratio), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				dst = dst[:0]
				i, j := 0, 0
				for i < len(a) && j < len(bb) {
					av, bv := a[i].ID, bb[j].ID
					switch {
					case av == bv:
						dst = append(dst, av)
						i++
						j++
					case av < bv:
						i++
					default:
						j++
					}
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
