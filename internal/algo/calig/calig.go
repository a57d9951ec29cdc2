// Package calig implements the CaLiG baseline (Yang et al., SIGMOD'23) in
// the general CSM model. CaLiG maintains a candidate lighting index (LiG)
// over (query vertex, data vertex) pairs and decomposes the query into
// kernel vertices (a vertex cover) and shell vertices (the independent
// complement). Enumeration backtracks over kernels only; once every kernel
// is matched, the candidates of all remaining shell vertices are fully
// determined and matches can be counted combinatorially instead of
// enumerated (the "turbo boosting" of the original paper).
//
// As in the original system — and as in the paper's evaluation setup —
// CaLiG ignores edge labels.
package calig

import (
	"paracosm/internal/algo/algobase"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// CaLiG is the LiG-indexed kernel/shell CSM baseline.
type CaLiG struct {
	algobase.Base
	ix       *lig
	counting bool

	isShell []bool
	// countDepth[orderCode] is the position from which the order's suffix
	// consists purely of shell vertices; in counting mode enumeration
	// stops there and shells are counted combinatorially.
	countDepth []uint8
	// back[orderCode] caches backward constraints for shell counting.
	back [][][]query.BackEdge
}

// Option configures CaLiG.
type Option func(*CaLiG)

// Counting enables combinatorial shell counting: Terminal leaves represent
// (and report) the number of matches without materializing shell
// assignments. Disable (default) when complete embeddings are required.
func Counting() Option { return func(a *CaLiG) { a.counting = true } }

// New returns a CaLiG instance.
func New(opts ...Option) *CaLiG {
	a := &CaLiG{}
	for _, o := range opts {
		o(a)
	}
	return a
}

var (
	_ csm.Algorithm = (*CaLiG)(nil)
	_ csm.Rebuilder = (*CaLiG)(nil)
)

// Name implements csm.Algorithm.
func (a *CaLiG) Name() string { return "CaLiG" }

// Build implements csm.Algorithm: computes the vertex cover, builds the
// LiG and installs kernel-first matching orders.
func (a *CaLiG) Build(g *graph.Graph, q *query.Graph) error {
	a.IgnoreELabels = true
	a.Init(g, q)
	a.ix = newLIG(g, q)
	a.Filter = a.ix.Lit

	kernel, shell := q.VertexCover()
	_ = kernel
	a.isShell = make([]bool, q.NumVertices())
	for _, s := range shell {
		a.isShell[s] = true
	}

	ne := q.NumEdges()
	a.countDepth = make([]uint8, 2*ne)
	a.back = make([][][]query.BackEdge, 2*ne)
	for i := 0; i < ne; i++ {
		for _, flip := range []bool{false, true} {
			eo := query.EdgeOrientation{Index: i, Flipped: flip}
			e := q.Edges()[i]
			s0, s1 := e.U, e.V
			if flip {
				s0, s1 = s1, s0
			}
			ord := a.kernelFirstOrder(s0, s1)
			a.SetOrder(eo, ord)
			code := csm.EncodeOrder(eo)
			a.back[code] = q.BackwardNeighbors(ord)
			// Longest all-shell suffix.
			cd := len(ord)
			for cd > 2 && a.isShell[ord[cd-1]] {
				cd--
			}
			a.countDepth[code] = uint8(cd)
		}
	}
	return nil
}

// kernelFirstOrder builds a connected order starting at (s0, s1) that
// prefers kernel vertices, pushing shells as late as possible.
func (a *CaLiG) kernelFirstOrder(s0, s1 query.VertexID) []query.VertexID {
	q := a.Q
	n := q.NumVertices()
	order := make([]query.VertexID, 0, n)
	in := make([]bool, n)
	backDeg := make([]int, n)
	add := func(v query.VertexID) {
		order = append(order, v)
		in[v] = true
		for _, nb := range q.Neighbors(v) {
			backDeg[nb.ID]++
		}
	}
	add(s0)
	add(s1)
	for len(order) < n {
		best := -1
		bestShell := true
		for v := 0; v < n; v++ {
			if in[v] || backDeg[v] == 0 {
				continue
			}
			sh := a.isShell[v]
			switch {
			case best < 0:
				best, bestShell = v, sh
			case !sh && bestShell:
				best, bestShell = v, sh
			case sh == bestShell && backDeg[v] > backDeg[best]:
				best = v
			}
		}
		if best < 0 {
			break
		}
		add(query.VertexID(best))
	}
	return order
}

// UpdateADS implements csm.Algorithm: local LiG maintenance.
func (a *CaLiG) UpdateADS(upd stream.Update) { a.ix.apply(upd) }

// AffectsADS implements csm.Algorithm: stage-3 filtering — the update is
// unsafe if it would change any lighting state, or if its endpoints are
// both lit for some query edge (in which case a match could use the edge
// even though the index is unchanged).
func (a *CaLiG) AffectsADS(upd stream.Update) bool {
	if !a.Relevant(upd) {
		return false
	}
	if a.ix.wouldChange(upd) {
		return true
	}
	x, y := upd.U, upd.V
	lx, ly := a.G.Label(x), a.G.Label(y)
	for _, eo := range a.Q.MatchingEdges(lx, ly, 0, true) {
		e := a.Q.Edges()[eo.Index]
		qa, qb := e.U, e.V
		if eo.Flipped {
			qa, qb = qb, qa
		}
		if a.ix.Lit(qa, x) && a.ix.Lit(qb, y) {
			return true
		}
	}
	return false
}

// RebuildADS implements csm.Rebuilder.
func (a *CaLiG) RebuildADS() bool { return a.ix.consistent() }

// Terminal implements csm.Enumerator. In counting mode a state whose
// remaining vertices are all shells is a leaf representing the number of
// injective shell assignments; otherwise leaves are full embeddings.
func (a *CaLiG) Terminal(s *csm.State) (uint64, bool) {
	n := a.Q.NumVertices()
	if int(s.Depth) == n {
		return 1, true
	}
	if a.counting && s.Depth == a.countDepth[s.Order] {
		return a.countShells(s), true
	}
	return 0, false
}

// countShells counts the injective assignments of the remaining shell
// vertices of s, given that all their query neighbors are matched.
func (a *CaLiG) countShells(s *csm.State) uint64 {
	ord := a.Order(csm.DecodeOrder(s.Order))
	back := a.back[s.Order]
	k := len(ord) - int(s.Depth)
	cands := make([][]graph.VertexID, 0, k)
	for pos := int(s.Depth); pos < len(ord); pos++ {
		c := a.shellCandidates(s, ord, ord[pos], back[pos])
		if len(c) == 0 {
			return 0
		}
		cands = append(cands, c)
	}
	return countInjective(cands)
}

// shellCandidates materializes the candidate set of shell vertex u. Every
// query neighbor of a shell is a kernel vertex, matched before countDepth,
// so the set is the intersection of the L(u)-labeled adjacency runs of the
// matched neighbors — folded smallest-run-first through one buffer with the
// shared pairwise kernels (graph.IntersectIDsNeighbors supports the
// in-place fold) — then filtered by degree, injectivity and the lighting
// index. CaLiG ignores edge labels, so ID intersection is exact here.
func (a *CaLiG) shellCandidates(s *csm.State, ord []query.VertexID, u query.VertexID, back []query.BackEdge) []graph.VertexID {
	lu := a.Q.Label(u)
	du := a.Q.Degree(u)
	ks := a.Kernel(s)
	var runs [query.MaxVertices][]graph.Neighbor
	k := 0
	for _, be := range back {
		w := s.Map[ord[be.Pos]]
		runs[k] = a.G.NeighborsWithLabel(w, lu)
		ks.AddCandidateLookup(len(runs[k]) < a.G.Degree(w))
		k++
	}
	if k == 0 {
		return nil // unreachable: matching orders are connected
	}
	// Smallest run first so the working set shrinks fastest.
	for i := 1; i < k; i++ {
		for j := i; j > 0 && len(runs[j]) < len(runs[j-1]); j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	out := make([]graph.VertexID, 0, len(runs[0]))
	for i := range runs[0] {
		out = append(out, runs[0][i].ID)
	}
	for i := 1; i < k && len(out) > 0; i++ {
		out = graph.IntersectIDsNeighbors(out[:0], out, runs[i], ks)
	}
	w := 0
	for _, v := range out {
		if a.G.Degree(v) < du || s.Uses(v) {
			continue
		}
		if a.Filter != nil && !a.Filter(u, v) {
			continue
		}
		out[w] = v
		w++
	}
	return out[:w]
}

// countInjective counts systems of distinct representatives of the
// candidate sets. Data vertices are grouped by their membership signature
// (which sets contain them); within a signature group vertices are
// interchangeable, so the count follows from falling factorials over
// groups — exact and polynomial for the small shell counts of real
// queries.
func countInjective(cands [][]graph.VertexID) uint64 {
	k := len(cands)
	if k == 0 {
		return 1
	}
	sig := make(map[graph.VertexID]uint32, 16)
	for i, c := range cands {
		for _, v := range c {
			sig[v] |= 1 << uint(i)
		}
	}
	type group struct {
		mask  uint32
		total int
		used  int
	}
	gm := make(map[uint32]*group)
	for _, m := range sig {
		if g, ok := gm[m]; ok {
			g.total++
		} else {
			gm[m] = &group{mask: m, total: 1}
		}
	}
	groups := make([]*group, 0, len(gm))
	for _, g := range gm {
		groups = append(groups, g)
	}
	var rec func(i int) uint64
	rec = func(i int) uint64 {
		if i == k {
			return 1
		}
		var total uint64
		for _, g := range groups {
			if g.mask&(1<<uint(i)) == 0 || g.used >= g.total {
				continue
			}
			avail := uint64(g.total - g.used)
			g.used++
			total += avail * rec(i+1)
			g.used--
		}
		return total
	}
	return rec(0)
}

// Index exposes the LiG for white-box tests.
func (a *CaLiG) Index() interface {
	Lit(query.VertexID, graph.VertexID) bool
} {
	return a.ix
}
