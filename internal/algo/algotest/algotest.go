// Package algotest provides randomized workload helpers shared by the
// cross-validation tests of the CSM algorithms and of the ParaCOSM
// executors: random labeled data graphs, random-walk query extraction and
// well-formed random update streams.
package algotest

import (
	"math/rand"

	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"

	"paracosm/internal/algo/calig"
	"paracosm/internal/algo/graphflow"
	"paracosm/internal/algo/newsp"
	"paracosm/internal/algo/sjtree"
	"paracosm/internal/algo/symbi"
	"paracosm/internal/algo/turboflux"
)

// Factory constructs a fresh algorithm instance.
type Factory struct {
	Name string
	New  func() csm.Algorithm
	// IgnoreELabels is true for algorithms that disregard edge labels
	// (CaLiG); reference comparisons must use the same semantics.
	IgnoreELabels bool
}

// Factories returns one factory per bundled algorithm, in paper order.
// CaLiG is included twice: once enumerating, once in counting mode.
//
//lint:ignore deadexport test harness: the shared cross-check generators and algorithm list the algorithm, core and server tests run on
func Factories() []Factory {
	return []Factory{
		{Name: "CaLiG", New: func() csm.Algorithm { return calig.New() }, IgnoreELabels: true},
		{Name: "CaLiG-counting", New: func() csm.Algorithm { return calig.New(calig.Counting()) }, IgnoreELabels: true},
		{Name: "GraphFlow", New: func() csm.Algorithm { return graphflow.New() }},
		{Name: "NewSP", New: func() csm.Algorithm { return newsp.New() }},
		{Name: "SJ-Tree", New: func() csm.Algorithm { return sjtree.New() }},
		{Name: "Symbi", New: func() csm.Algorithm { return symbi.New() }},
		{Name: "TurboFlux", New: func() csm.Algorithm { return turboflux.New() }},
	}
}

// RandomGraph builds a random labeled graph with n vertices, ~e edges,
// vl vertex labels and el edge labels.
//
//lint:ignore deadexport test harness: the shared cross-check generators and algorithm list the algorithm, core and server tests run on
func RandomGraph(rng *rand.Rand, n, e, vl, el int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(rng.Intn(vl)))
	}
	for i := 0; i < e; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		g.AddEdge(u, v, graph.Label(rng.Intn(el)))
	}
	return g
}

// RandomQuery extracts a connected query of the given size from g by
// random walk (the paper's query-generation methodology), or returns nil
// when g is too sparse to yield one.
//
//lint:ignore deadexport test harness: the shared cross-check generators and algorithm list the algorithm, core and server tests run on
func RandomQuery(rng *rand.Rand, g *graph.Graph, size int) *query.Graph {
	n := g.NumVertices()
	for attempt := 0; attempt < 100; attempt++ {
		seed := graph.VertexID(rng.Intn(n))
		if g.Degree(seed) == 0 {
			continue
		}
		idx := map[graph.VertexID]int{seed: 0}
		order := []graph.VertexID{seed}
		cur := seed
		for steps := 0; len(order) < size && steps < size*50; steps++ {
			ns := g.Neighbors(cur)
			if len(ns) == 0 {
				break
			}
			nxt := ns[rng.Intn(len(ns))].ID
			if _, ok := idx[nxt]; !ok {
				idx[nxt] = len(order)
				order = append(order, nxt)
			}
			cur = nxt
		}
		if len(order) < size {
			continue
		}
		labels := make([]graph.Label, size)
		for v, i := range idx {
			labels[i] = g.Label(v)
		}
		q, err := query.New(labels)
		if err != nil {
			return nil
		}
		for i, dv := range order {
			for _, nb := range g.Neighbors(dv) {
				if j, ok := idx[nb.ID]; ok && j > i {
					q.MustAddEdge(query.VertexID(i), query.VertexID(j), nb.ELabel)
				}
			}
		}
		if q.Finalize() != nil {
			continue
		}
		return q
	}
	return nil
}

// RandomStream generates length well-formed updates against a copy of g:
// inserts of absent edges (probability insertP) and deletes of present
// edges. The returned stream applies cleanly to g in order.
//
//lint:ignore deadexport test harness: the shared cross-check generators and algorithm list the algorithm, core and server tests run on
func RandomStream(rng *rand.Rand, g *graph.Graph, length int, insertP float64, el int) stream.Stream {
	sim := g.Clone()
	n := sim.NumVertices()
	var s stream.Stream
	for len(s) < length {
		if rng.Float64() < insertP {
			// Insert a random absent edge.
			ok := false
			for try := 0; try < 50; try++ {
				u := graph.VertexID(rng.Intn(n))
				v := graph.VertexID(rng.Intn(n))
				if u != v && !sim.HasEdge(u, v) {
					l := graph.Label(rng.Intn(el))
					sim.AddEdge(u, v, l)
					s = append(s, stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: l})
					ok = true
					break
				}
			}
			if !ok {
				break
			}
		} else {
			// Delete a random present edge.
			ok := false
			for try := 0; try < 50; try++ {
				u := graph.VertexID(rng.Intn(n))
				ns := sim.Neighbors(u)
				if len(ns) == 0 {
					continue
				}
				v := ns[rng.Intn(len(ns))].ID
				sim.RemoveEdge(u, v)
				s = append(s, stream.Update{Op: stream.DeleteEdge, U: u, V: v})
				ok = true
				break
			}
			if !ok {
				break
			}
		}
	}
	return s
}
