package paracosm_test

import (
	"context"
	"fmt"

	"paracosm"
)

// ExampleNew demonstrates the complete lifecycle: build a data graph and a
// query, wrap a baseline algorithm in ParaCOSM, and process updates.
func ExampleNew() {
	// Data graph: person(0) - account(1) - person(0).
	g := paracosm.NewGraph(3)
	p1 := g.AddVertex(0)
	acct := g.AddVertex(1)
	p2 := g.AddVertex(0)
	g.AddEdge(p1, acct, 0)

	// Query: two persons sharing an account.
	q := paracosm.MustNewQuery([]paracosm.Label{0, 1, 0})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	if err := q.Finalize(); err != nil {
		panic(err)
	}

	eng := paracosm.New(paracosm.Symbi(), paracosm.Threads(2))
	if err := eng.Init(g, q); err != nil {
		panic(err)
	}

	delta, err := eng.ProcessUpdate(context.Background(), paracosm.AddEdge(p2, acct, 0))
	if err != nil {
		panic(err)
	}
	fmt.Printf("new matches: %d\n", delta.Positive)
	// Output: new matches: 2
}

// ExampleEngine_Run processes a whole update stream and reads aggregate
// statistics, including the safe-update ratio of the inter-update
// classifier.
func ExampleEngine_Run() {
	g := paracosm.NewGraph(4)
	a := g.AddVertex(0)
	b := g.AddVertex(1)
	c := g.AddVertex(2) // label 2 appears in no query: edges to it are safe
	d := g.AddVertex(2)

	q := paracosm.MustNewQuery([]paracosm.Label{0, 1})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		panic(err)
	}

	eng := paracosm.New(paracosm.GraphFlow(), paracosm.Threads(2))
	if err := eng.Init(g, q); err != nil {
		panic(err)
	}
	stats, err := eng.Run(context.Background(), paracosm.Stream{
		paracosm.AddEdge(a, b, 0), // creates a match
		paracosm.AddEdge(c, d, 0), // label-safe: skipped entirely
		paracosm.DeleteEdge(a, b), // expires the match
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("+%d -%d, %d of %d updates safe\n",
		stats.Positive, stats.Negative, stats.SafeUpdates, stats.Updates)
	// Output: +1 -1, 1 of 3 updates safe
}

// ExampleNewMulti monitors two patterns over one stream with query-level
// parallelism.
func ExampleNewMulti() {
	g := paracosm.NewGraph(4)
	u1 := g.AddVertex(0)
	u2 := g.AddVertex(0)
	shop := g.AddVertex(1)

	friends := paracosm.MustNewQuery([]paracosm.Label{0, 0})
	friends.MustAddEdge(0, 1, 0)
	if err := friends.Finalize(); err != nil {
		panic(err)
	}
	visit := paracosm.MustNewQuery([]paracosm.Label{0, 1})
	visit.MustAddEdge(0, 1, 0)
	if err := visit.Finalize(); err != nil {
		panic(err)
	}

	m := paracosm.NewMulti(paracosm.Threads(2))
	m.Register("friends", paracosm.GraphFlow(), friends)
	m.Register("visits", paracosm.TurboFlux(), visit)
	if err := m.Init(g); err != nil {
		panic(err)
	}
	if err := m.Run(context.Background(), paracosm.Stream{
		paracosm.AddEdge(u1, u2, 0),
		paracosm.AddEdge(u1, shop, 0),
	}); err != nil {
		panic(err)
	}
	st := m.Stats()
	fmt.Printf("friends: %d, visits: %d\n", st["friends"].Positive, st["visits"].Positive)
	// Output: friends: 2, visits: 1
}
