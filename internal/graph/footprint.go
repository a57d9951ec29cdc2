package graph

// This file computes conflict footprints for the batch-dynamic executor
// (DESIGN.md §15). The footprint of an edge update (u,v) is the set of
// vertices whose adjacency lists or per-vertex index (ADS) entries the
// update's processing may read or write: both endpoints, plus every
// vertex reachable from them within `radius` hops through query-relevant
// labels. Two updates with disjoint footprints commute — neither's
// classification, enumeration, mutation or ADS maintenance can observe
// the other's effects — so the executor may run them concurrently.
//
// Why relevant-label expansion is enough: the candidate walk only ever
// stands on vertices whose label matches a query vertex, and the ADS
// cascade only propagates through candidacy changes, which are likewise
// confined to label-matching vertices. Reads and writes of a vertex x's
// adjacency list are both detected at x itself (the list owner), never
// at the far endpoint, so irrelevant-labeled neighbors need not be
// pulled into the set — only the two endpoints are included
// unconditionally, because Apply writes their lists whatever their
// labels are.

// FootprintScratch holds the reusable state of footprint BFS walks: an
// epoch-stamped visited array (cleared in O(1) per call by bumping the
// epoch), the BFS frontier, and the output buffer. One scratch serves
// one goroutine at a time; steady-state calls allocate nothing once the
// buffers have grown to the working-set size.
//
// The wave scheduler this served is gone (DESIGN.md §15): the one caller
// left is benchmarks/harness/micro.go (graph.footprint_ns_per_call), and
// this file and its test leave with it in ROADMAP item 14's benchmark PR.
type FootprintScratch struct {
	stamp []uint32 // stamp[v] == epoch ⇔ v visited in the current call
	epoch uint32
	queue []VertexID
	out   []VertexID
}

// Footprint returns the conflict footprint of the edge (u, v): every
// vertex within radius hops of either endpoint, expanding only through
// vertices whose label is relevant (labelOK[label] is true; labels at or
// beyond len(labelOK) — including every label when labelOK is nil — are
// conservatively treated as relevant: a too-large footprint only costs
// grouping opportunity, never correctness). The returned slice aliases
// the scratch and is valid until the next call.
//
// The walk aborts once the footprint would exceed max vertices,
// returning overflow == true with a partial (meaningless) set: the
// caller must then treat the update as conflicting with everything.
// Out-of-range endpoints (an update racing a vertex op) also report
// overflow, which degrades to the serial path where the usual apply
// error surfaces.
//
//paracosm:noalloc
func (fs *FootprintScratch) Footprint(g *Graph, u, v VertexID, radius, max int, labelOK []bool) ([]VertexID, bool) {
	n := g.NumVertices()
	for len(fs.stamp) < n {
		fs.stamp = append(fs.stamp, 0)
	}
	fs.epoch++
	if fs.epoch == 0 { // wrapped: stale stamps could collide, reset them
		for i := range fs.stamp {
			fs.stamp[i] = 0
		}
		fs.epoch = 1
	}
	fs.out = fs.out[:0]
	fs.queue = fs.queue[:0]
	if int(u) >= n || int(v) >= n {
		return fs.out, true
	}

	fs.stamp[u] = fs.epoch
	fs.out = append(fs.out, u)
	fs.queue = append(fs.queue, u)
	if v != u {
		fs.stamp[v] = fs.epoch
		fs.out = append(fs.out, v)
		fs.queue = append(fs.queue, v)
	}
	if len(fs.out) > max {
		return fs.out, true
	}

	head := 0
	levelEnd := len(fs.queue) // frontier boundary of the current depth
	depth := 0
	for head < len(fs.queue) {
		if head == levelEnd {
			depth++
			levelEnd = len(fs.queue)
		}
		if depth >= radius {
			break
		}
		x := fs.queue[head]
		head++
		// Expansion happens only through relevant-labeled vertices (the
		// endpoints expand unconditionally: their lists are written by
		// Apply regardless of label).
		if depth > 0 && !labelRelevant(labelOK, g.labels[x]) {
			continue
		}
		for i := range g.adj[x] {
			y := g.adj[x][i].ID
			if fs.stamp[y] == fs.epoch || !labelRelevant(labelOK, g.labels[y]) {
				continue
			}
			fs.stamp[y] = fs.epoch
			fs.out = append(fs.out, y)
			if len(fs.out) > max {
				return fs.out, true
			}
			fs.queue = append(fs.queue, y)
		}
	}
	return fs.out, false
}

// labelRelevant reports whether l is query-relevant under the mask.
//
//paracosm:noalloc
func labelRelevant(mask []bool, l Label) bool {
	return int(l) >= len(mask) || mask[l]
}
