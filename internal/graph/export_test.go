package graph

// Accessors only the tests read.

// NumLive returns the number of live (not deleted) vertices.
func (g *Graph) NumLive() int {
	n := 0
	for _, a := range g.alive {
		if a {
			n++
		}
	}
	return n
}

// AvgDegree returns 2|E|/|V| over live vertices.
func (g *Graph) AvgDegree() float64 {
	live := g.NumLive()
	if live == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(live)
}

// MaxDegree returns the maximum degree over live vertices.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := range g.adj {
		if g.alive[v] && len(g.adj[v]) > m {
			m = len(g.adj[v])
		}
	}
	return m
}

// NumLabels returns the number of distinct vertex labels in use.
func (g *Graph) NumLabels() int { return len(g.byLabel) }

// Len returns the number of recorded mutations.
func (u *UndoLog) Len() int { return len(u.ops) }
