// Multi-query monitoring: several continuous patterns watched over one
// update stream — the workload shape of production CSM deployments (a
// risk-control system runs hundreds of rules at once). MultiEngine adds
// query-level parallelism on top of ParaCOSM's inner- and inter-update
// levels: each registered query gets its own engine and runs concurrently.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"paracosm"
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// Shared data graph: a small social/commerce network.
	// Labels: 0 = user, 1 = shop, 2 = item.
	g := paracosm.NewGraph(700)
	var users, shops, items []paracosm.VertexID
	for i := 0; i < 500; i++ {
		users = append(users, g.AddVertex(0))
	}
	for i := 0; i < 80; i++ {
		shops = append(shops, g.AddVertex(1))
	}
	for i := 0; i < 120; i++ {
		items = append(items, g.AddVertex(2))
	}
	for i := 0; i < 1500; i++ {
		g.AddEdge(users[rng.Intn(len(users))], users[rng.Intn(len(users))], 0)
	}
	for i := 0; i < 600; i++ {
		g.AddEdge(users[rng.Intn(len(users))], shops[rng.Intn(len(shops))], 0)
	}
	for i := 0; i < 500; i++ {
		g.AddEdge(shops[rng.Intn(len(shops))], items[rng.Intn(len(items))], 0)
	}

	// Three continuously monitored patterns.
	mkQuery := func(labels []paracosm.Label, edges [][2]uint8) *paracosm.Query {
		q := paracosm.MustNewQuery(labels)
		for _, e := range edges {
			q.MustAddEdge(e[0], e[1], 0)
		}
		if err := q.Finalize(); err != nil {
			log.Fatal(err)
		}
		return q
	}
	// friend-triangle: three mutually connected users.
	triangle := mkQuery([]paracosm.Label{0, 0, 0}, [][2]uint8{{0, 1}, {1, 2}, {2, 0}})
	// co-shopping square: two friends who both buy at the same two shops.
	square := mkQuery([]paracosm.Label{0, 0, 1, 1}, [][2]uint8{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}})
	// supply wedge: two shops selling the same item, visited by one user.
	wedge := mkQuery([]paracosm.Label{0, 1, 1, 2}, [][2]uint8{{0, 1}, {0, 2}, {1, 3}, {2, 3}})

	m := paracosm.NewMulti(paracosm.Threads(4))
	defer m.Close()
	m.Register("friend-triangle", paracosm.Symbi(), triangle)
	m.Register("co-shopping-square", paracosm.TurboFlux(), square)
	m.Register("supply-wedge", paracosm.GraphFlow(), wedge)
	if err := m.Init(g); err != nil {
		log.Fatal(err)
	}

	// One shared event stream.
	sim := g.Clone()
	var events paracosm.Stream
	for i := 0; i < 2500; i++ {
		var u, v paracosm.VertexID
		switch rng.Intn(3) {
		case 0:
			u, v = users[rng.Intn(len(users))], users[rng.Intn(len(users))]
		case 1:
			u, v = users[rng.Intn(len(users))], shops[rng.Intn(len(shops))]
		default:
			u, v = shops[rng.Intn(len(shops))], items[rng.Intn(len(items))]
		}
		if u != v && !sim.HasEdge(u, v) {
			sim.AddEdge(u, v, 0)
			events = append(events, paracosm.AddEdge(u, v, 0))
		}
	}

	if err := m.Run(context.Background(), events); err != nil {
		log.Fatal(err)
	}

	stats := m.Stats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("monitored %d patterns over %d shared events:\n", len(stats), len(events))
	for _, n := range names {
		st := stats[n]
		fmt.Printf("  %-20s +%7d matches  (%5.1f%% safe updates, %8d search nodes)\n",
			n, st.Positive, 100*st.SafeRatio(), st.Nodes)
	}
}
