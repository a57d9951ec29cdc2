// Package dataset synthesizes stand-ins for the four datasets of the
// ParaCOSM evaluation (Table 5): Amazon, LiveJournal, LSBench and Orkut.
//
// The real datasets are multi-gigabyte SNAP downloads; what drives CSM
// behaviour is their metadata — vertex/edge label alphabet sizes, average
// degree, and a heavy-tailed degree distribution — all of which the
// synthesizer preserves while scaling the vertex count down to
// laptop-friendly sizes. Following the CSM benchmark methodology of
// Sun et al. (VLDB'22) that the paper adopts, a fraction (default 10%) of
// edges is held out of the base graph and replayed as the insertion
// stream.
//
// Generation is fully deterministic given a seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Spec describes a dataset's metadata as reported in Table 5 of the paper.
type Spec struct {
	Name    string
	V       int // vertex count of the full dataset
	E       int // edge count of the full dataset
	VLabels int // |L(V)|
	ELabels int // |L(E)|
	// LabelSkew is the Zipf exponent of the vertex/edge label
	// distributions (0 = uniform). Real-world label frequencies are
	// heavily skewed — product categories, community interests and
	// relation types all follow power laws — and that skew is what makes
	// candidate sets large and CSM search hard; a uniform assignment
	// over the same alphabet would make every query unrealistically
	// selective.
	LabelSkew float64
}

// The four evaluation datasets (paper Table 5).
var (
	AmazonSpec      = Spec{Name: "Amazon", V: 403_394, E: 2_433_408, VLabels: 6, ELabels: 1, LabelSkew: 0.9}
	LiveJournalSpec = Spec{Name: "LiveJournal", V: 4_847_571, E: 42_841_237, VLabels: 30, ELabels: 1, LabelSkew: 0.9}
	LSBenchSpec     = Spec{Name: "LSBench", V: 5_210_099, E: 20_270_676, VLabels: 1, ELabels: 44, LabelSkew: 0.9}
	OrkutSpec       = Spec{Name: "Orkut", V: 3_072_441, E: 117_185_083, VLabels: 20, ELabels: 20, LabelSkew: 0.9}
)

// labelSampler draws labels from a truncated Zipf (or uniform) law.
type labelSampler struct {
	rng *rand.Rand
	cum []float64 // cumulative probabilities
	n   int
}

func newLabelSampler(rng *rand.Rand, n int, skew float64) *labelSampler {
	s := &labelSampler{rng: rng, n: n}
	if n <= 1 || skew <= 0 {
		return s
	}
	weights := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		weights[k] = 1 / powf(float64(k+1), skew)
		total += weights[k]
	}
	s.cum = make([]float64, n)
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += weights[k] / total
		s.cum[k] = acc
	}
	return s
}

func (s *labelSampler) sample() graph.Label {
	if s.cum == nil {
		return graph.Label(s.rng.Intn(s.n))
	}
	x := s.rng.Float64()
	lo, hi := 0, s.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return graph.Label(lo)
}

func powf(base, exp float64) float64 { return math.Pow(base, exp) }

type config struct {
	scale   float64
	seed    int64
	holdout float64
}

// Option configures dataset synthesis.
type Option func(*config)

// Scale multiplies the spec's vertex and edge counts (default 0.002, which
// turns LiveJournal into ~10k vertices / ~86k edges).
func Scale(f float64) Option { return func(c *config) { c.scale = f } }

// Seed fixes the generator seed (default 1).
func Seed(s int64) Option { return func(c *config) { c.seed = s } }

// Dataset is a synthesized data graph plus its insertion stream.
type Dataset struct {
	Name   string
	Spec   Spec
	Graph  *graph.Graph  // base graph with holdout edges removed
	Stream stream.Stream // insertion stream (the held-out edges)

	rng *rand.Rand
}

// Amazon-like &co: named constructors for the four evaluation datasets.

// AmazonLike synthesizes the Amazon co-purchase stand-in.
func AmazonLike(opts ...Option) *Dataset { return Custom(AmazonSpec, opts...) }

// LiveJournalLike synthesizes the LiveJournal community-network stand-in.
func LiveJournalLike(opts ...Option) *Dataset { return Custom(LiveJournalSpec, opts...) }

// LSBenchLike synthesizes the LSBench streaming-social stand-in.
func LSBenchLike(opts ...Option) *Dataset { return Custom(LSBenchSpec, opts...) }

// OrkutLike synthesizes the Orkut social-network stand-in.
func OrkutLike(opts ...Option) *Dataset { return Custom(OrkutSpec, opts...) }

// Custom synthesizes a dataset for an arbitrary spec.
func Custom(spec Spec, opts ...Option) *Dataset {
	c := config{scale: 0.002, seed: 1, holdout: 0.1}
	for _, o := range opts {
		o(&c)
	}
	n := int(float64(spec.V) * c.scale)
	if n < 64 {
		n = 64
	}
	m := int(float64(spec.E) * c.scale)
	if m < 2*n {
		m = 2 * n
	}
	rng := rand.New(rand.NewSource(c.seed))
	full, edges := generate(rng, n, m, spec.VLabels, spec.ELabels, spec.LabelSkew)

	// Hold out a random fraction as the insertion stream, preserving the
	// original (random) edge order.
	nHold := int(float64(len(edges)) * c.holdout)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	held := edges[:nHold]

	base := full
	var s stream.Stream
	for _, e := range held {
		base.RemoveEdge(e.u, e.v)
		s = append(s, stream.Update{Op: stream.AddEdge, U: e.u, V: e.v, ELabel: e.l})
	}
	return &Dataset{Name: spec.Name, Spec: spec, Graph: base, Stream: s, rng: rng}
}

type edge struct {
	u, v graph.VertexID
	l    graph.Label
}

// generate builds a preferential-attachment graph with n vertices, m edges
// and (optionally Zipf-skewed) vertex and edge labels.
func generate(rng *rand.Rand, n, m, vl, el int, skew float64) (*graph.Graph, []edge) {
	vs := newLabelSampler(rng, vl, skew)
	es := newLabelSampler(rng, el, skew)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(vs.sample())
	}
	var edges []edge
	// ends holds every edge endpoint once; sampling uniformly from it is
	// degree-proportional (Barabási–Albert style), producing the heavy
	// tail the real social graphs have.
	ends := make([]graph.VertexID, 0, 2*m)
	addEdge := func(u, v graph.VertexID) bool {
		if u == v || g.HasEdge(u, v) {
			return false
		}
		l := es.sample()
		g.AddEdge(u, v, l)
		edges = append(edges, edge{u, v, l})
		ends = append(ends, u, v)
		return true
	}
	// Seed ring so early vertices have degree.
	for i := 0; i < 8 && i < n; i++ {
		addEdge(graph.VertexID(i), graph.VertexID((i+1)%min(8, n)))
	}
	perVertex := m / n
	if perVertex < 1 {
		perVertex = 1
	}
	for v := 8; v < n && len(edges) < m; v++ {
		for k := 0; k < perVertex && len(edges) < m; k++ {
			var t graph.VertexID
			ok := false
			for try := 0; try < 8; try++ {
				t = ends[rng.Intn(len(ends))]
				if addEdge(graph.VertexID(v), t) {
					ok = true
					break
				}
			}
			if !ok {
				// Fall back to a uniform target to guarantee progress.
				addEdge(graph.VertexID(v), graph.VertexID(rng.Intn(n)))
			}
		}
	}
	// Top up to exactly m edges with preferential pairs.
	for guard := 0; len(edges) < m && guard < 50*m; guard++ {
		u := ends[rng.Intn(len(ends))]
		v := ends[rng.Intn(len(ends))]
		addEdge(u, v)
	}
	return g, edges
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RandomQuery extracts a connected query graph with `size` vertices by
// random walk from a random seed vertex, taking the induced subgraph of the
// visited vertex set — the query-generation methodology of the paper (§5.1).
func (d *Dataset) RandomQuery(size int) (*query.Graph, error) {
	if size < 2 || size > query.MaxVertices {
		return nil, fmt.Errorf("dataset: query size %d out of range [2,%d]", size, query.MaxVertices)
	}
	g := d.Graph
	n := g.NumVertices()
	for attempt := 0; attempt < 200; attempt++ {
		seed := graph.VertexID(d.rng.Intn(n))
		if g.Degree(seed) == 0 {
			continue
		}
		visited := make(map[graph.VertexID]int) // data vertex -> query id
		orderv := make([]graph.VertexID, 0, size)
		visit := func(v graph.VertexID) {
			if _, ok := visited[v]; !ok {
				visited[v] = len(orderv)
				orderv = append(orderv, v)
			}
		}
		visit(seed)
		cur := seed
		ids := make([]graph.VertexID, 0, 64)
		for steps := 0; len(orderv) < size && steps < size*60; steps++ {
			ns := g.Neighbors(cur)
			if len(ns) == 0 {
				break
			}
			// Pick the step uniformly among neighbors ranked by ascending
			// ID, not by position in the adjacency slice: generation must be
			// independent of the adjacency representation order, or seeded
			// workloads silently change whenever the layout does.
			ids = ids[:0]
			for _, nb := range ns {
				ids = append(ids, nb.ID)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			nxt := ids[d.rng.Intn(len(ids))]
			visit(nxt)
			cur = nxt
		}
		if len(orderv) < size {
			continue
		}
		labels := make([]graph.Label, size)
		for v, qid := range visited {
			labels[qid] = g.Label(v)
		}
		q, err := query.New(labels)
		if err != nil {
			return nil, err
		}
		for i, dv := range orderv {
			for _, nb := range g.Neighbors(dv) {
				if j, ok := visited[nb.ID]; ok && j > i {
					q.MustAddEdge(query.VertexID(i), query.VertexID(j), nb.ELabel)
				}
			}
		}
		if err := q.Finalize(); err != nil {
			continue // extremely unlikely; retry with a new seed
		}
		return q, nil
	}
	return nil, fmt.Errorf("dataset %s: failed to extract a %d-vertex query", d.Name, size)
}

// RandomQueries extracts count queries of the given size.
func (d *Dataset) RandomQueries(size, count int) ([]*query.Graph, error) {
	qs := make([]*query.Graph, 0, count)
	for i := 0; i < count; i++ {
		q, err := d.RandomQuery(size)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// DeletionHeavyStream returns a churn stream over the holdout edges where
// delRatio of the updates are deletions, interleaved with the inserts
// rather than appended after them: edges are
// inserted, randomly deleted while other inserts are still in flight, and
// about half of the deleted edges are re-inserted later. The interleaving
// creates the insert/delete proximity the batch-dynamic window coalescer
// annihilates and the delete-then-reinsert retouches it folds. delRatio
// is clamped to [0, 0.9]; the stream applies cleanly against d.Graph and
// is deterministic for a dataset built with a fixed Seed.
func (d *Dataset) DeletionHeavyStream(delRatio float64) stream.Stream {
	if delRatio < 0 {
		delRatio = 0
	}
	if delRatio > 0.9 {
		delRatio = 0.9
	}
	pending := append(stream.Stream(nil), d.Stream...)
	var alive stream.Stream
	var out stream.Stream
	budget := 3 * len(d.Stream)
	for len(out) < budget && (len(pending) > 0 || len(alive) > 0) {
		doDel := len(alive) > 0 && (len(pending) == 0 || d.rng.Float64() < delRatio)
		if !doDel {
			ins := pending[0]
			pending = pending[1:]
			out = append(out, ins)
			alive = append(alive, ins)
			continue
		}
		i := d.rng.Intn(len(alive))
		ins := alive[i]
		alive[i] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		del, err := ins.Invert()
		if err != nil {
			continue
		}
		out = append(out, del)
		if d.rng.Float64() < 0.5 {
			pending = append(pending, ins) // churn: the edge comes back later
		}
	}
	return out
}

// BurstyStream returns a stream where every holdout edge is touched
// burstLen times in a row, alternating insert/delete starting from the
// insert — the hot-edge burst workload. A burst folds to at most one net
// update under window coalescing (odd burstLen: the edge ends present;
// even: it annihilates entirely), so the stream stresses exactly the
// window-assembly path. burstLen < 1 is treated as 1 (the plain holdout
// stream); the result applies cleanly against d.Graph.
func (d *Dataset) BurstyStream(burstLen int) stream.Stream {
	if burstLen < 1 {
		burstLen = 1
	}
	out := make(stream.Stream, 0, burstLen*len(d.Stream))
	for _, ins := range d.Stream {
		del, err := ins.Invert()
		if err != nil {
			out = append(out, ins)
			continue
		}
		for k := 0; k < burstLen; k++ {
			if k%2 == 0 {
				out = append(out, ins)
			} else {
				out = append(out, del)
			}
		}
	}
	return out
}
