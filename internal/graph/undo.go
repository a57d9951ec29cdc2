package graph

// UndoLog records the inverse of speculatively applied mutations so a
// caller can validate a whole update batch against the live graph —
// validity of update i depends on updates < i being applied — and then
// roll the graph back to its pre-batch state. This is the journal behind
// MultiEngine.ProcessBatch's shared-graph validation: with one data graph
// shared by every standing query there is no per-query clone to apply
// against, so validation applies speculatively and undoes.
//
// The log is bounded by the batch it validates: one entry per applied
// mutation, and Reset reuses the backing array across batches. It is NOT
// safe for concurrent use; the owner must serialize all logged mutations
// and the rollback (MultiEngine keeps the log and the graph under one
// mutex — see the "guarded by" annotations there).
type UndoLog struct {
	ops []undoOp
}

// undoKind discriminates the inverse operation of one journal entry.
type undoKind uint8

const (
	undoAddEdge      undoKind = iota // inverse: remove edge (u,v)
	undoRemoveEdge                   // inverse: re-add edge (u,v,l)
	undoAddVertex                    // inverse: pop vertex slot u
	undoDeleteVertex                 // inverse: revive vertex u
)

// undoOp is one recorded inverse operation.
type undoOp struct {
	kind undoKind
	u, v VertexID
	l    Label
}

// Rollback undoes every recorded mutation in reverse order, restoring the
// graph to its state before the first logged mutation, then empties the
// log, retaining its capacity for the next batch. Mutations interleaved with the logged ones (not going through the
// *Logged methods) break the restore — the owner's single-writer
// discipline must prevent that.
func (u *UndoLog) Rollback(g *Graph) {
	for i := len(u.ops) - 1; i >= 0; i-- {
		op := u.ops[i]
		switch op.kind {
		case undoAddEdge:
			g.RemoveEdge(op.u, op.v)
		case undoRemoveEdge:
			g.AddEdge(op.u, op.v, op.l)
		case undoAddVertex:
			g.popVertex(op.u)
		case undoDeleteVertex:
			g.reviveVertex(op.u)
		}
	}
	u.ops = u.ops[:0]
}

// AddEdgeLogged is AddEdge with the inverse recorded in log on success.
func (g *Graph) AddEdgeLogged(u, v VertexID, l Label, log *UndoLog) bool {
	if !g.AddEdge(u, v, l) {
		return false
	}
	log.ops = append(log.ops, undoOp{kind: undoAddEdge, u: u, v: v})
	return true
}

// RemoveEdgeLogged is RemoveEdge with the inverse (including the removed
// edge's label) recorded in log on success.
func (g *Graph) RemoveEdgeLogged(u, v VertexID, log *UndoLog) bool {
	l, ok := g.EdgeLabel(u, v)
	if !ok {
		return false
	}
	if !g.RemoveEdge(u, v) {
		return false
	}
	log.ops = append(log.ops, undoOp{kind: undoRemoveEdge, u: u, v: v, l: l})
	return true
}

// AddVertexLogged is AddVertex with the inverse recorded in log.
func (g *Graph) AddVertexLogged(l Label, log *UndoLog) VertexID {
	id := g.AddVertex(l)
	log.ops = append(log.ops, undoOp{kind: undoAddVertex, u: id})
	return id
}

// DeleteVertexLogged is DeleteVertex with the inverse recorded in log. Like
// DeleteVertex it requires v to be alive and isolated.
func (g *Graph) DeleteVertexLogged(v VertexID, log *UndoLog) {
	g.DeleteVertex(v)
	log.ops = append(log.ops, undoOp{kind: undoDeleteVertex, u: v})
}

// popVertex removes the most recently added vertex slot entirely (the
// rollback of AddVertex). v must be the last slot, with no incident edges —
// guaranteed when undoing in reverse order, since any logged edges touching
// v were already rolled back.
func (g *Graph) popVertex(v VertexID) {
	if int(v) != len(g.labels)-1 {
		panic("graph: popVertex: not the last vertex slot")
	}
	if len(g.adj[v]) != 0 {
		panic("graph: popVertex: vertex not isolated")
	}
	if g.alive[v] {
		l := g.labels[v]
		s := g.byLabel[l]
		for i, id := range s {
			if id == v {
				s[i] = s[len(s)-1]
				g.byLabel[l] = s[:len(s)-1]
				break
			}
		}
	}
	g.labels = g.labels[:v]
	g.adj = g.adj[:v]
	g.segs = g.segs[:v]
	g.alive = g.alive[:v]
}

// reviveVertex undoes DeleteVertex: the slot becomes alive again and
// rejoins the label index (order within VerticesWithLabel is unspecified,
// so re-appending is enough).
func (g *Graph) reviveVertex(v VertexID) {
	if g.alive[v] {
		panic("graph: reviveVertex: vertex alive")
	}
	g.alive[v] = true
	l := g.labels[v]
	g.byLabel[l] = append(g.byLabel[l], v)
}
