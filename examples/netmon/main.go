// Network security monitoring: continuous detection of lateral-movement
// chains in a connection graph — the graph-based botnet/intrusion
// detection application the ParaCOSM paper cites (Lagraa et al., 2024).
//
// Hosts are labeled external / workstation / server; edges are observed
// connections labeled by protocol. The query is a lateral-movement chain:
// an external host reaches a workstation over remote-access, which fans
// out to two more workstations, one of which touches a server over an
// admin protocol. The example replays a day of connection events at full
// speed through ParaCOSM (NewSP under the hood), measures detection
// latency per event, and prints the latency distribution — the real-time
// responsiveness requirement of the motivating applications.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"paracosm/internal/algo/newsp"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

const (
	external    = 0
	workstation = 1
	server      = 2
)

const (
	web    = 0 // http(s)
	remote = 1 // ssh/rdp
	admin  = 2 // smb/winrm
)

func main() {
	rng := rand.New(rand.NewSource(23))

	g := graph.New(1100)
	var ext, ws, srv []graph.VertexID
	for i := 0; i < 100; i++ {
		ext = append(ext, g.AddVertex(external))
	}
	for i := 0; i < 900; i++ {
		ws = append(ws, g.AddVertex(workstation))
	}
	for i := 0; i < 100; i++ {
		srv = append(srv, g.AddVertex(server))
	}
	// Baseline traffic.
	for i := 0; i < 2500; i++ {
		g.AddEdge(ws[rng.Intn(len(ws))], ws[rng.Intn(len(ws))], web)
	}
	for i := 0; i < 800; i++ {
		g.AddEdge(ws[rng.Intn(len(ws))], srv[rng.Intn(len(srv))], web)
	}
	for i := 0; i < 400; i++ {
		g.AddEdge(ext[rng.Intn(len(ext))], ws[rng.Intn(len(ws))], web)
	}

	// Lateral-movement chain:
	//
	//	ext --remote--> ws1 --remote--> ws2 --remote--> ws3 --admin--> srv
	q := query.MustNew([]graph.Label{external, workstation, workstation, workstation, server})
	q.MustAddEdge(0, 1, remote)
	q.MustAddEdge(1, 2, remote)
	q.MustAddEdge(2, 3, remote)
	q.MustAddEdge(3, 4, admin)
	if err := q.Finalize(); err != nil {
		log.Fatal(err)
	}

	eng := core.New(newsp.New(), core.Threads(4))
	detections := 0
	eng.OnMatch = func(s *csm.State, count uint64, positive bool) {
		if positive {
			detections++
			if detections <= 3 {
				fmt.Printf("DETECTED lateral movement: %d -> %d -> %d -> %d -> server %d\n",
					s.Map[0], s.Map[1], s.Map[2], s.Map[3], s.Map[4])
			}
		}
	}
	if err := eng.Init(g, q); err != nil {
		log.Fatal(err)
	}

	// Connection event stream: background noise plus two slow intrusions
	// whose final hop completes the chain.
	sim := g.Clone()
	var events stream.Stream
	add := func(u, v graph.VertexID, l graph.Label) {
		if u != v && !sim.HasEdge(u, v) {
			sim.AddEdge(u, v, l)
			events = append(events, stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: l})
		}
	}
	for intrusion := 0; intrusion < 2; intrusion++ {
		for i := 0; i < 1000; i++ {
			add(ws[rng.Intn(len(ws))], ws[rng.Intn(len(ws))], web)
			if i%7 == 0 {
				add(ext[rng.Intn(len(ext))], ws[rng.Intn(len(ws))], web)
			}
			if i%11 == 0 { // benign admin traffic
				add(ws[rng.Intn(len(ws))], srv[rng.Intn(len(srv))], admin)
			}
		}
		e0 := ext[rng.Intn(len(ext))]
		w1, w2, w3 := ws[rng.Intn(len(ws))], ws[rng.Intn(len(ws))], ws[rng.Intn(len(ws))]
		s0 := srv[rng.Intn(len(srv))]
		add(e0, w1, remote)
		add(w1, w2, remote)
		add(w2, w3, remote)
		add(w3, s0, admin) // completes the chain
	}

	// Replay, measuring per-event processing latency.
	latencies := make([]time.Duration, 0, len(events))
	ctx := context.Background()
	for _, ev := range events {
		t0 := time.Now()
		if _, err := eng.ProcessUpdate(ctx, ev); err != nil {
			log.Fatal(err)
		}
		latencies = append(latencies, time.Since(t0))
	}

	st := eng.Stats()
	sum := obs.Summarize(latencies)
	fmt.Printf("\nevents     : %d connections, %d intrusion chains detected\n", st.Updates, detections)
	fmt.Printf("latency    : p50=%v p90=%v p99=%v max=%v\n",
		sum.P50.Round(time.Microsecond), sum.P90.Round(time.Microsecond),
		sum.P99.Round(time.Microsecond), sum.Max.Round(time.Microsecond))
	fmt.Printf("throughput : %.0f events/s sustained\n", float64(len(events))/sum.Total.Seconds())
	fmt.Printf("search     : %d nodes explored, +%d/-%d matches\n", st.Nodes, st.Positive, st.Negative)
}
