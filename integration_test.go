package paracosm

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/dataset"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

// TestFilePipeline exercises the full cmd-style flow without exec:
// synthesize a dataset, serialize graph + stream to disk (gendata), read
// them back (paracosm CLI), run an engine over them, and validate against
// the reference matcher.
func TestFilePipeline(t *testing.T) {
	dir := t.TempDir()
	d := dataset.AmazonLike(dataset.Scale(0.0005), dataset.Seed(9))

	// gendata side: write artifacts.
	gPath := filepath.Join(dir, "data_graph.txt")
	sPath := filepath.Join(dir, "stream.txt")
	gf, err := os.Create(gPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Graph.Write(gf); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	sf, err := os.Create(sPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Stream[:80].Write(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	// paracosm CLI side: read artifacts back.
	gf2, err := os.Open(gPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Read(gf2)
	gf2.Close()
	if err != nil {
		t.Fatal(err)
	}
	sf2, err := os.Open(sPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.Read(sf2)
	sf2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != d.Graph.NumEdges() || len(s) != 80 {
		t.Fatalf("round trip sizes: %d edges, %d updates", g.NumEdges(), len(s))
	}

	q, err := d.RandomQuery(4)
	if err != nil {
		t.Fatal(err)
	}

	// Reference totals computed on the file-loaded graph.
	var wantPos, wantNeg uint64
	h := g.Clone()
	for _, upd := range s {
		p, n := refmatch.Delta(h, q, upd, refmatch.Options{})
		wantPos += p
		wantNeg += n
		if err := upd.Apply(h); err != nil {
			t.Fatal(err)
		}
	}

	e, err := algo.ByName("TurboFlux")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(e.New(), core.Threads(2))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Positive != wantPos || st.Negative != wantNeg {
		t.Fatalf("file pipeline totals (+%d,-%d), reference (+%d,-%d)",
			st.Positive, st.Negative, wantPos, wantNeg)
	}
}

// TestQueryFileFormat round-trips a query through the graph text format
// the way cmd/gendata writes and cmd/paracosm reads them.
func TestQueryFileFormat(t *testing.T) {
	d := dataset.OrkutLike(dataset.Scale(0.0003), dataset.Seed(5))
	q, err := d.RandomQuery(5)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize as gendata does: the query in graph format.
	path := filepath.Join(t.TempDir(), "q.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < q.NumVertices(); u++ {
		if _, err := f.WriteString(
			"v " + itoa(u) + " " + itoa(int(q.Label(uint8(u)))) + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range q.Edges() {
		if _, err := f.WriteString(
			"e " + itoa(int(e.U)) + " " + itoa(int(e.V)) + " " + itoa(int(e.ELabel)) + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Parse as cmd/paracosm does.
	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	gq, err := graph.Read(f2)
	f2.Close()
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]graph.Label, gq.NumVertices())
	for v := range labels {
		labels[v] = gq.Label(graph.VertexID(v))
	}
	q2, err := query.New(labels)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < gq.NumVertices(); v++ {
		for _, nb := range gq.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < nb.ID {
				if err := q2.AddEdge(query.VertexID(v), query.VertexID(nb.ID), nb.ELabel); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := q2.Finalize(); err != nil {
		t.Fatal(err)
	}
	if q2.NumVertices() != q.NumVertices() || q2.NumEdges() != q.NumEdges() {
		t.Fatalf("query round trip: (%d,%d) -> (%d,%d)",
			q.NumVertices(), q.NumEdges(), q2.NumVertices(), q2.NumEdges())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
