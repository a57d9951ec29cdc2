package graph

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// FuzzRead ensures the graph codec never panics on arbitrary input and
// that anything it accepts round-trips through Write/Read losslessly.
func FuzzRead(f *testing.F) {
	f.Add("v 0 1\nv 1 2\ne 0 1 3\n")
	f.Add("# comment\nv 0 0\n")
	f.Add("e 0 1 2\n")
	f.Add("v 0 0\nv 1 0\ne 0 1\ne 1 0 5\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-Read of Write output: %v\n%s", err, buf.String())
		}
		if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)",
				g.NumVertices(), g.NumEdges(), h.NumVertices(), h.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			if g.Label(VertexID(v)) != h.Label(VertexID(v)) {
				t.Fatalf("label of %d changed", v)
			}
			if g.Degree(VertexID(v)) != h.Degree(VertexID(v)) {
				t.Fatalf("degree of %d changed", v)
			}
		}
	})
}

// checkLabelIndexInvariants asserts every structural invariant of the
// label-partitioned adjacency:
//
//   - each adjacency list is strictly sorted by (neighbor label, neighbor ID),
//   - each label offset table is strictly sorted, covers the list exactly,
//     and contains no empty runs,
//   - NeighborsWithLabel(v, l) equals the filter of Neighbors(v) by label l
//     (and is empty for labels not present),
//   - the per-label degrees sum to the degree, degrees sum to 2|E|,
//   - NumLive counts exactly the alive vertices, and the byLabel index
//     lists exactly the live vertices of each label.
func checkLabelIndexInvariants(t *testing.T, g *Graph) {
	t.Helper()
	degSum, liveCount := 0, 0
	for vi := 0; vi < g.NumVertices(); vi++ {
		v := VertexID(vi)
		if g.Alive(v) {
			liveCount++
		}
		adj := g.Neighbors(v)
		degSum += len(adj)
		key := func(n Neighbor) uint64 { return uint64(g.Label(n.ID))<<32 | uint64(n.ID) }
		for i := 1; i < len(adj); i++ {
			if key(adj[i-1]) >= key(adj[i]) {
				t.Fatalf("vertex %d: adjacency not strictly (label,id)-sorted: %v", v, adj)
			}
		}
		segs := g.segs[v]
		if len(segs) == 0 && len(adj) != 0 {
			t.Fatalf("vertex %d: non-empty adjacency with empty offset table", v)
		}
		if len(segs) > 0 && segs[0].start != 0 {
			t.Fatalf("vertex %d: first run starts at %d", v, segs[0].start)
		}
		for i, s := range segs {
			if i > 0 && (segs[i-1].label >= s.label || segs[i-1].start >= s.start) {
				t.Fatalf("vertex %d: offset table not strictly sorted: %+v", v, segs)
			}
			hi := len(adj)
			if i+1 < len(segs) {
				hi = int(segs[i+1].start)
			}
			if int(s.start) >= hi {
				t.Fatalf("vertex %d: empty run for label %d", v, s.label)
			}
			for _, nb := range adj[s.start:hi] {
				if g.Label(nb.ID) != s.label {
					t.Fatalf("vertex %d: neighbor %d (label %d) inside run of label %d",
						v, nb.ID, g.Label(nb.ID), s.label)
				}
			}
		}
		// Label slices must equal the filter view, and per-label degrees
		// must sum to the degree. Include one label absent from the list.
		probe := make(map[Label]bool)
		for _, nb := range adj {
			probe[g.Label(nb.ID)] = true
		}
		probe[Label(250)] = true
		total := 0
		for l := range probe {
			var want []Neighbor
			for _, nb := range adj {
				if g.Label(nb.ID) == l {
					want = append(want, nb)
				}
			}
			got := g.NeighborsWithLabel(v, l)
			if len(got) != len(want) {
				t.Fatalf("vertex %d label %d: NeighborsWithLabel = %v, filter = %v", v, l, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("vertex %d label %d: NeighborsWithLabel = %v, filter = %v", v, l, got, want)
				}
			}
			if d := g.DegreeWithLabel(v, l); d != len(want) {
				t.Fatalf("vertex %d label %d: DegreeWithLabel = %d, want %d", v, l, d, len(want))
			}
			total += len(want)
		}
		if total != len(adj) {
			t.Fatalf("vertex %d: per-label degrees sum to %d, degree %d", v, total, len(adj))
		}
	}
	if liveCount != g.NumLive() {
		t.Fatalf("NumLive = %d, counted %d", g.NumLive(), liveCount)
	}
	if degSum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*NumEdges %d", degSum, 2*g.NumEdges())
	}
	perLabel := make(map[Label]int)
	for vi := 0; vi < g.NumVertices(); vi++ {
		if g.Alive(VertexID(vi)) {
			perLabel[g.Label(VertexID(vi))]++
		}
	}
	for l, n := range perLabel {
		vs := g.VerticesWithLabel(l)
		if len(vs) != n {
			t.Fatalf("VerticesWithLabel(%d) has %d entries, want %d", l, len(vs), n)
		}
		for _, v := range vs {
			if !g.Alive(v) || g.Label(v) != l {
				t.Fatalf("VerticesWithLabel(%d) lists %d (alive=%v label=%d)", l, v, g.Alive(v), g.Label(v))
			}
		}
	}
}

// FuzzLabelIndex drives random add-vertex / toggle-edge / delete-vertex
// sequences from the fuzz input and asserts the full label-index invariant
// set, then replays the input as reads from several goroutines at once —
// meaningful under -race: the concurrent-readers contract MultiEngine's
// fan-out rests on — and asserts that every reader saw the same graph.
func FuzzLabelIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 4, 0x10, 5, 0x21, 4, 0x20, 12, 3})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 4, 0x01, 4, 0x12, 4, 0x23, 4, 0x30, 12, 0})
	f.Add([]byte{0, 4, 4, 0x01, 8, 0x01, 12, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxV = 16
		g := New(maxV)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			n := g.NumVertices()
			switch op % 4 {
			case 0: // add vertex with a small label
				if n < maxV {
					g.AddVertex(Label(arg % 5))
				}
			case 1, 2: // toggle an edge between two existing vertices
				if n >= 2 {
					u := VertexID(arg&0x0f) % VertexID(n)
					v := VertexID(arg>>4) % VertexID(n)
					if g.HasEdge(u, v) {
						g.RemoveEdge(u, v)
					} else {
						g.AddEdge(u, v, Label(op%3))
					}
				}
			case 3: // delete the first isolated live vertex
				for vi := 0; vi < n; vi++ {
					v := VertexID(vi)
					if g.Alive(v) && g.Degree(v) == 0 {
						g.DeleteVertex(v)
						break
					}
				}
			}
		}
		checkLabelIndexInvariants(t, g)

		// Concurrent phase: every reader walks the whole input as lookups
		// and sums what it saw; a reader that wrote anything, or saw a
		// torn state, shows up as a race or a differing sum.
		if n := g.NumVertices(); n >= 2 {
			const readers = 4
			var sums [readers]int
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i+1 < len(ops); i++ {
						u := VertexID(ops[i]&0x0f) % VertexID(n)
						v := VertexID(ops[i]>>4) % VertexID(n)
						if g.HasEdge(u, v) {
							l, _ := g.EdgeLabel(u, v)
							sums[r] += 1 + int(l)
						}
						sums[r] += g.Degree(u) + len(g.NeighborsWithLabel(v, Label(ops[i+1]%5)))
					}
				}(r)
			}
			wg.Wait()
			for r := 1; r < readers; r++ {
				if sums[r] != sums[0] {
					t.Fatalf("reader %d saw sum %d, reader 0 saw %d", r, sums[r], sums[0])
				}
			}
		}
	})
}
