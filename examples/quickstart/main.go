// Quickstart: the running example of the ParaCOSM paper (Figure 1) in a
// few dozen lines — a small labeled data graph, a query pattern, and a
// stream of edge insertions/deletions whose incremental matches ParaCOSM
// reports as they appear and expire.
package main

import (
	"context"
	"fmt"
	"log"

	"paracosm/internal/algo/symbi"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

func main() {
	// Data graph G: six vertices. Labels: 0 = person, 1 = account,
	// 2 = device.
	g := graph.New(6)
	v0 := g.AddVertex(0) // person
	v1 := g.AddVertex(1) // account
	v2 := g.AddVertex(2) // device
	v3 := g.AddVertex(0) // person
	v4 := g.AddVertex(2) // device
	v5 := g.AddVertex(1) // account
	g.AddEdge(v0, v1, 0)
	g.AddEdge(v1, v2, 0)
	g.AddEdge(v2, v3, 0)
	g.AddEdge(v3, v5, 0)

	// Query Q: person - account - device - person (a path that closes
	// into a square when the two persons share a device).
	q := query.MustNew([]graph.Label{0, 1, 2, 0})
	q.MustAddEdge(0, 1, 0) // person - account
	q.MustAddEdge(1, 2, 0) // account - device
	q.MustAddEdge(2, 3, 0) // device - person
	if err := q.Finalize(); err != nil {
		log.Fatal(err)
	}

	// Wrap any single-threaded CSM algorithm (here: Symbi) in ParaCOSM.
	eng := core.New(symbi.New(), core.Threads(4))
	eng.OnMatch = func(s *csm.State, count uint64, positive bool) {
		sign := "+"
		if !positive {
			sign = "-"
		}
		fmt.Printf("  %s match: person=%d account=%d device=%d person=%d\n",
			sign, s.Map[0], s.Map[1], s.Map[2], s.Map[3])
	}
	if err := eng.Init(g, q); err != nil {
		log.Fatal(err)
	}

	// Update stream ΔG: two insertions create matches, one deletion
	// expires a match.
	updates := stream.Stream{
		{Op: stream.AddEdge, U: v4, V: v5, ELabel: 0}, // device4 - account5
		{Op: stream.AddEdge, U: v0, V: v4, ELabel: 0}, // person0 - device4
		{Op: stream.DeleteEdge, U: v2, V: v3},         // expire device2 - person3
	}
	for i, upd := range updates {
		fmt.Printf("ΔG_%d = %v\n", i+1, upd)
		if _, err := eng.ProcessUpdate(context.Background(), upd); err != nil {
			log.Fatal(err)
		}
	}

	st := eng.Stats()
	fmt.Printf("\nprocessed %d updates: +%d new matches, -%d expired (%d search nodes)\n",
		st.Updates, st.Positive, st.Negative, st.Nodes)
}
