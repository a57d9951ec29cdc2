// Fraud detection: the financial risk-control scenario that motivates the
// ParaCOSM paper (ByteGraph performs continuous pattern matching over
// transaction graphs with real-time responsiveness).
//
// The data graph is a synthetic payment network: accounts, merchants and
// devices. The query is a "money mule fan-in" motif: two distinct source
// accounts pay into the same mule account, which cashes out at a merchant,
// while the mule shares a device with one of the sources — a classic
// collusion signature. A stream of payment events is replayed through
// ParaCOSM (TurboFlux under the hood) and every newly completed motif is
// reported as an alert the moment the completing transaction arrives.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"paracosm/internal/algo/turboflux"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Vertex labels.
const (
	account  = 0
	merchant = 1
	device   = 2
)

// Edge labels.
const (
	pays = 0 // account -> account / merchant payment
	uses = 1 // account -> device
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Build the base payment network: 600 accounts, 60 merchants, 200
	// devices, with random historical payments and device usage.
	g := graph.New(860)
	var accounts, merchants, devices []graph.VertexID
	for i := 0; i < 600; i++ {
		accounts = append(accounts, g.AddVertex(account))
	}
	for i := 0; i < 60; i++ {
		merchants = append(merchants, g.AddVertex(merchant))
	}
	for i := 0; i < 200; i++ {
		devices = append(devices, g.AddVertex(device))
	}
	for i := 0; i < 1200; i++ {
		g.AddEdge(accounts[rng.Intn(len(accounts))], accounts[rng.Intn(len(accounts))], pays)
	}
	for i := 0; i < 500; i++ {
		g.AddEdge(accounts[rng.Intn(len(accounts))], merchants[rng.Intn(len(merchants))], pays)
	}
	for i := 0; i < 700; i++ {
		g.AddEdge(accounts[rng.Intn(len(accounts))], devices[rng.Intn(len(devices))], uses)
	}

	// Money-mule fan-in motif:
	//
	//	src1(account) --pays--> mule(account) <--pays-- src2(account)
	//	mule --pays--> cashout(merchant)
	//	mule --uses--> dev(device) <--uses-- src1
	q := query.MustNew([]graph.Label{account, account, account, merchant, device})
	q.MustAddEdge(0, 1, pays) // src1 -> mule
	q.MustAddEdge(2, 1, pays) // src2 -> mule
	q.MustAddEdge(1, 3, pays) // mule -> merchant
	q.MustAddEdge(1, 4, uses) // mule shares device
	q.MustAddEdge(0, 4, uses) // ... with src1
	if err := q.Finalize(); err != nil {
		log.Fatal(err)
	}

	eng := core.New(turboflux.New(), core.Threads(4))
	alerts := 0
	eng.OnMatch = func(s *csm.State, count uint64, positive bool) {
		if !positive {
			return
		}
		alerts++
		if alerts <= 5 {
			fmt.Printf("ALERT %d: mule ring src1=%d src2=%d mule=%d cashout=%d device=%d\n",
				alerts, s.Map[0], s.Map[2], s.Map[1], s.Map[3], s.Map[4])
		}
	}
	if err := eng.Init(g, q); err != nil {
		log.Fatal(err)
	}

	// Live payment stream: mostly organic noise, with a few planted mule
	// rings whose final cash-out transaction completes the motif.
	var events stream.Stream
	addIfAbsent := func(sim *graph.Graph, u, v graph.VertexID, l graph.Label) {
		if u != v && !sim.HasEdge(u, v) {
			sim.AddEdge(u, v, l)
			events = append(events, stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: l})
		}
	}
	sim := g.Clone()
	for ring := 0; ring < 4; ring++ {
		src1 := accounts[rng.Intn(len(accounts))]
		src2 := accounts[rng.Intn(len(accounts))]
		mule := accounts[rng.Intn(len(accounts))]
		dev := devices[rng.Intn(len(devices))]
		cash := merchants[rng.Intn(len(merchants))]
		// Noise between the ring's pieces.
		for i := 0; i < 120; i++ {
			addIfAbsent(sim, accounts[rng.Intn(len(accounts))], devices[rng.Intn(len(devices))], uses)
			addIfAbsent(sim, accounts[rng.Intn(len(accounts))], accounts[rng.Intn(len(accounts))], pays)
		}
		addIfAbsent(sim, src1, dev, uses)
		addIfAbsent(sim, mule, dev, uses)
		addIfAbsent(sim, src1, mule, pays)
		addIfAbsent(sim, src2, mule, pays)
		addIfAbsent(sim, mule, cash, pays) // completes the motif
	}

	t0 := time.Now()
	if _, err := eng.Run(context.Background(), events); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("\nstream    : %d payment events in %v (%.0f events/s)\n",
		st.Updates, time.Since(t0).Round(time.Millisecond),
		float64(st.Updates)/time.Since(t0).Seconds())
	fmt.Printf("alerts    : %d mule-ring completions detected\n", alerts)
	fmt.Printf("classifier: %.1f%% of events were safe (skipped search entirely)\n", 100*st.SafeRatio())
	fmt.Printf("breakdown : ADS %v, match search %v\n",
		st.TADS.Round(time.Microsecond), st.TFind.Round(time.Microsecond))
}
