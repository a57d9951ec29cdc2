// Package harness is the repository benchmark: four workloads that each
// put a different layer of the system to work, measured end to end (eight
// metrics a user would see) and layer by layer (a ladder of rungs plus
// microbenchmarks around the layers' public functions). See ../README.md
// for why each workload exists and how the numbers are kept repeatable.
package harness

import (
	"fmt"
	"math/rand"

	"paracosm/internal/dataset"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// dataSeed fixes the synthesized data graphs. The graphs are heavy-tailed
// (preferential attachment), so the cost of a few thousand updates drawn
// from a fresh graph varies two- to three-fold between graph seeds; a
// fixed graph with a seed-drawn stream order keeps the total work of a
// pass (the sum of ΔM over a round trip does not depend on order) while
// every seed still gives the engines a different sequence of states.
const dataSeed = 1

// Query is one standing query of a workload.
type Query struct {
	Name string
	Algo string
	G    *query.Graph
}

// Spec describes one workload. Sizes were chosen on the reference box so
// that one pass takes 0.5–1 s and set-up and recovery take at least 1 s.
type Spec struct {
	Name string
	Why  string
	// Serve selects the end-to-end path: the real `paracosm serve` binary
	// over loopback TCP, or core.Engine in this process.
	Serve bool

	Data      dataset.Spec
	DataScale float64
	// Inserts is the number of hold-out insertions a pass starts from;
	// the round trip at least doubles it.
	Inserts int
	// Churn composes the bursty and deletion-heavy generators over the
	// hold-out edges instead of replaying them once.
	Churn bool
	// Window is core.Window / `serve -window`.
	Window int

	Queries func() []Query
	// Subscribed is how many of the queries (the first ones) the serve
	// workloads' subscriber connection listens on.
	Subscribed int
	// Rate is the fixed open-loop rate of the serve workloads' latency
	// passes, in updates per second. A constant, never derived from the
	// run's own throughput.
	Rate int
}

// Specs returns the four workloads in report order.
func Specs() []Spec {
	return []Spec{
		{
			Name:      "search_heavy",
			Why:       "large candidate sets on 6 skewed labels: Find-Matches in algo/graph/core inner-update does the work, server/wal/stream none",
			Data:      dataset.AmazonSpec,
			DataScale: 0.5,
			Inserts:   330,
			Queries:   searchHeavyQueries,
		},
		{
			Name:      "churn_window",
			Window:    64,
			Why:       "30 labels, >90% safe updates, bursty+deletion-heavy round trip under Window(64): classifier, coalescer, adjacency mutation and ADS upkeep do the work, search little",
			Data:      dataset.LiveJournalSpec,
			DataScale: 0.03,
			Inserts:   12000,
			Churn:     true,
			Queries:   churnQueries,
		},
		{
			Name:       "serve_ingest",
			Serve:      true,
			Why:        "real server with WAL and tracer, one cheap query: wire codec, ingest queue, WAL group commit, snapshots and delta fan-out do the work, search idles",
			Data:       dataset.LiveJournalSpec,
			DataScale:  0.03,
			Inserts:    32768,
			Queries:    ingestQueries,
			Subscribed: 1,
			Rate:       20000,
		},
		{
			Name:       "serve_multiquery",
			Serve:      true,
			Why:        "same server, 128 standing queries on one shared graph: the MultiEngine lockstep fan-out, linear in queries, does the work; wire and WAL are a few percent",
			Data:       dataset.LiveJournalSpec,
			DataScale:  0.03,
			Inserts:    1200,
			Queries:    multiQueries,
			Subscribed: 8,
			Rate:       1500,
		},
	}
}

// SpecByName looks a workload up.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// shape is a query topology over vertices 0..n-1.
type shape struct {
	n     int
	edges [][2]int
}

var (
	path4    = shape{4, [][2]int{{0, 1}, {1, 2}, {2, 3}}}
	star4    = shape{4, [][2]int{{0, 1}, {0, 2}, {0, 3}}}
	triTail4 = shape{4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}}}
	cycle4   = shape{4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	path5    = shape{5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	triEars5 = shape{5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 4}}}
	cycTail5 = shape{5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}}}
	path6    = shape{6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}}
	triTail6 = shape{6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}}}
	star6    = shape{6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}}}
	cycTail6 = shape{6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}}}
)

// mkQuery builds a finalized query; the templates are constants of this
// file, so a failure is a bug here and panics.
func mkQuery(name, algo string, sh shape, labels ...graph.Label) Query {
	if len(labels) != sh.n {
		panic(fmt.Sprintf("harness: query %s: %d labels for %d vertices", name, len(labels), sh.n))
	}
	q := query.MustNew(labels)
	for _, e := range sh.edges {
		q.MustAddEdge(query.VertexID(e[0]), query.VertexID(e[1]), 0)
	}
	if err := q.Finalize(); err != nil {
		panic(fmt.Sprintf("harness: query %s: %v", name, err))
	}
	return Query{Name: name, Algo: algo, G: q}
}

// searchHeavyQueries are four size-6 queries over the frequent labels of
// the 6-label graph: candidate sets are large and the heavy ones exceed
// the escalation budget, so the inner-update executor engages.
func searchHeavyQueries() []Query {
	return []Query{
		mkQuery("gf-path", "GraphFlow", path6, 0, 1, 2, 0, 1, 3),
		mkQuery("gf-tritail", "GraphFlow", triTail6, 0, 0, 1, 2, 1, 0),
		mkQuery("sy-star", "Symbi", star6, 0, 1, 1, 2, 3, 0),
		mkQuery("sy-cyctail", "Symbi", cycTail6, 0, 1, 0, 2, 4, 5),
	}
}

// churnQueries are two Symbi queries on mid-frequency labels of the
// 30-label graph: nearly every update is safe and search is negligible.
func churnQueries() []Query {
	return []Query{
		mkQuery("sy-tri", "Symbi", triEars5, 1, 2, 3, 0, 4),
		mkQuery("sy-path", "Symbi", path5, 2, 0, 3, 1, 5),
	}
}

// ingestQueries is one GraphFlow path query: no index to keep up, a
// microsecond and a half of matching per update, and one update in twelve
// turns into a delta, which is what the latency passes sample. The issue
// asked for four queries; with four (or two) the MultiEngine's per-update
// goroutine fan-out alone costs more than wire, queue and log together
// (6.2 and 4.7 µs per update against 1.9 for one query, which takes the
// fan-out's single-query path), and the workload would measure core a
// second time instead of the serving path.
func ingestQueries() []Query {
	return []Query{mkQuery("q-path", "GraphFlow", path4, 0, 1, 2, 0)}
}

// multiQueries are 128 distinct GraphFlow queries of sizes 4–6: nine
// topologies crossed with label assignments drawn from a palette that
// favours the frequent labels. The first eight (the subscribed ones) walk
// the palette from its most frequent end.
func multiQueries() []Query {
	shapes := []shape{path4, star4, triTail4, cycle4, path5, triEars5, cycTail5, path6, triTail6}
	palette := []graph.Label{0, 1, 2, 3, 0, 1, 4, 5}
	seen := make(map[string]bool)
	qs := make([]Query, 0, 128)
	for round := 0; len(qs) < 128; round++ {
		a, b := round%len(palette), 1+2*(round/len(palette))
		for si, sh := range shapes {
			labels := make([]graph.Label, sh.n)
			for j := range labels {
				labels[j] = palette[(a+b*j)%len(palette)]
			}
			key := fmt.Sprint(si, labels)
			if seen[key] || len(qs) == 128 {
				continue
			}
			seen[key] = true
			qs = append(qs, mkQuery(fmt.Sprintf("m%03d", len(qs)), "GraphFlow", sh, labels...))
		}
	}
	return qs
}

// Inputs is everything one run feeds the system, generated from the seed.
type Inputs struct {
	Spec    Spec
	Seed    int64
	Base    *graph.Graph // never mutated after Generate
	Queries []Query
	// Fwd then Bwd is one pass: Bwd is Fwd's inverse in reverse order, so
	// a pass returns the graph to Base and every pass is identical work.
	Fwd, Bwd stream.Stream
	// LatFwd then LatBwd is the same hold-out set as a round trip in the
	// dataset's own order, whatever the seed: what the serve workloads'
	// latency passes send. A tail percentile over a few hundred deltas is
	// set by which heavy updates share a frame, and between two seeds'
	// orders it differed by half (12 to 18 ms on serve_multiquery).
	LatFwd, LatBwd stream.Stream
}

// Updates is the number of updates in one pass.
func (in *Inputs) Updates() int { return len(in.Fwd) + len(in.Bwd) }

// prefix returns the inputs shortened to the first m insertions and
// their inverses — the last m updates of Bwd — which is again a round
// trip from Base to Base.
func (in *Inputs) prefix(m int) *Inputs {
	if m > len(in.Fwd) {
		m = len(in.Fwd)
	}
	out := *in
	out.Fwd, out.Bwd = in.Fwd[:m], in.Bwd[len(in.Bwd)-m:]
	return &out
}

// Generate builds a workload's inputs. scale shrinks graph and stream
// together (1 is the benchmark's size; the smoke test uses a few percent).
// The same (spec, seed, scale) always yields the same inputs.
func Generate(sp Spec, seed int64, scale float64) (*Inputs, error) {
	d := dataset.Custom(sp.Data, dataset.Scale(sp.DataScale*scale), dataset.Seed(dataSeed))
	inserts := int(float64(sp.Inserts) * scale)
	if inserts < 32 {
		inserts = 32
	}
	if inserts > len(d.Stream) {
		inserts = len(d.Stream)
	}
	// The hold-out set is fixed; the seed draws its order (and, through
	// the order, what the churn generators do with it).
	fixed := append(stream.Stream(nil), d.Stream[:inserts]...)
	hold := append(stream.Stream(nil), fixed...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hold), func(i, j int) { hold[i], hold[j] = hold[j], hold[i] })

	fwd := hold
	if sp.Churn {
		half := len(hold) / 2
		d.Stream = hold[:half]
		fwd = d.BurstyStream(3)
		d.Stream = hold[half:]
		fwd = append(fwd, d.DeletionHeavyStream(0.5)...)
	}
	// Deletions carry no edge label, so inverting one needs the label of
	// the insertion it undid.
	elabel := make(map[[2]graph.VertexID]graph.Label, len(hold))
	for _, u := range hold {
		elabel[edgeOf(u)] = u.ELabel
	}
	in := &Inputs{Spec: sp, Seed: seed, Base: d.Graph, Queries: sp.Queries(), Fwd: fwd, LatFwd: fixed}
	var err error
	if in.Bwd, err = inverse(sp, fwd, elabel); err != nil {
		return nil, err
	}
	if in.LatBwd, err = inverse(sp, fixed, elabel); err != nil {
		return nil, err
	}
	return in, nil
}

// inverse returns the updates that undo fwd, last first.
func inverse(sp Spec, fwd stream.Stream, elabel map[[2]graph.VertexID]graph.Label) (stream.Stream, error) {
	bwd := make(stream.Stream, 0, len(fwd))
	for i := len(fwd) - 1; i >= 0; i-- {
		u := fwd[i]
		switch u.Op {
		case stream.AddEdge:
			bwd = append(bwd, stream.Update{Op: stream.DeleteEdge, U: u.U, V: u.V})
		case stream.DeleteEdge:
			bwd = append(bwd, stream.Update{Op: stream.AddEdge, U: u.U, V: u.V, ELabel: elabel[edgeOf(u)]})
		default:
			return nil, fmt.Errorf("harness: %s: generator emitted %v", sp.Name, u)
		}
	}
	return bwd, nil
}

// frames cuts s into consecutive slices of at most n updates.
func frames(s stream.Stream, n int) []stream.Stream {
	out := make([]stream.Stream, 0, (len(s)+n-1)/n)
	for ; len(s) > n; s = s[n:] {
		out = append(out, s[:n])
	}
	return append(out, s)
}

func edgeOf(u stream.Update) [2]graph.VertexID {
	if u.U > u.V {
		return [2]graph.VertexID{u.V, u.U}
	}
	return [2]graph.VertexID{u.U, u.V}
}
