package query

// EdgeIndex returns the position of edge (u,v) in Edges(), or -1.
func (q *Graph) EdgeIndex(u, v VertexID) int {
	if u > v {
		u, v = v, u
	}
	for i, e := range q.edges {
		if e.U == u && e.V == v {
			return i
		}
	}
	return -1
}
