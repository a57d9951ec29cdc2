package core

import (
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// This file is the lockstep driver's dispatch index (DESIGN.md §13): stage
// one of the update classifier — the label filter — depends only on the
// update's endpoint labels and a query's static edge set, so the driver
// decides it for all standing queries at once, from a table, instead of
// asking each of them. Per edge update it visits only the queries the
// table lists; every other (query, update) pair is a safe:label update
// with an empty ΔM, which nobody computes and which is accounted in bulk.

// dispatchIndex maps an edge update's endpoint vertex labels to the
// standing queries that must see it. A query sits in exactly one kind of
// row, by what its algorithm declares through csm.LabelDispatch:
//
//   - byPair, under every unordered endpoint-label pair of its query
//     edges, when it keeps no ADS: an update with another pair fails its
//     label stage and its UpdateADS is empty;
//   - byLabel, under every query-vertex label, when its ADS reads endpoint
//     degrees: a label-safe update still changes the degree of a vertex the
//     ADS may hold an entry for, so either endpoint label suffices;
//   - always, when it has no label stage to decide from.
//
// Rows are keyed on vertex labels only; the visited query's own classifier
// applies the edge-label test.
type dispatchIndex struct {
	byPair  map[uint64][]*multiQuery // key: pairKey
	byLabel map[uint64][]*multiQuery // key: the label
	always  []*multiQuery

	// The bulk-accounting tally. A query's skipped updates are never
	// counted one by one: they are the part of counters.Updates the query
	// is not yet square with (see foldLocked).
	counters DispatchCounters

	visit []*multiQuery // the current update's visit list, reused
	seq   uint64        // registration ordinals handed out (multiQuery.seq)
}

// DispatchCounters is the dispatch index's tally. Visited+Skipped is the
// number of live standing queries summed over the Updates edge updates
// routed through the index — under Window(n), the coalesced survivors; the
// driver routes through it only with the classifier on, outside Simulate.
type DispatchCounters struct {
	Updates int    // edge updates routed through the index
	Visited uint64 // (query, update) pairs handed to the query's engine
	Skipped uint64 // pairs accounted in bulk as safe:label, engine untouched
}

func pairKey(a, b graph.Label) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

func newDispatchIndex() dispatchIndex {
	return dispatchIndex{
		byPair:  make(map[uint64][]*multiQuery),
		byLabel: make(map[uint64][]*multiQuery),
	}
}

// rowsOf returns the row map mq belongs in and its keys there (repeats
// possible); a nil map stands for the always row. add and remove both go
// through it, so they cannot disagree.
func (d *dispatchIndex) rowsOf(mq *multiQuery) (rows map[uint64][]*multiQuery, keys []uint64) {
	ld, ok := mq.algo.(csm.LabelDispatch)
	_, staged := mq.algo.(stagedClassifier)
	if !ok || !staged {
		return nil, nil
	}
	pairs, adsReadsDegrees := ld.DispatchLabels()
	if adsReadsDegrees {
		for u := 0; u < mq.q.NumVertices(); u++ {
			keys = append(keys, uint64(mq.q.Label(query.VertexID(u))))
		}
		return d.byLabel, keys
	}
	for _, p := range pairs {
		keys = append(keys, pairKey(p[0], p[1]))
	}
	return d.byPair, keys
}

// add indexes mq at the end of its rows — rows stay in registration order
// — and starts its bulk accounting at the current update count.
func (d *dispatchIndex) add(mq *multiQuery) {
	d.seq++
	mq.seq = d.seq
	mq.squared = d.counters.Updates
	rows, keys := d.rowsOf(mq)
	if rows == nil {
		d.always = append(d.always, mq)
		return
	}
	for _, k := range keys {
		if row := rows[k]; len(row) == 0 || row[len(row)-1] != mq {
			rows[k] = append(row, mq)
		}
	}
}

// remove drops mq from its rows, keeping their order.
func (d *dispatchIndex) remove(mq *multiQuery) {
	rows, keys := d.rowsOf(mq)
	if rows == nil {
		d.always = without(d.always, mq)
		return
	}
	for _, k := range keys {
		if row := without(rows[k], mq); len(row) == 0 {
			delete(rows, k)
		} else {
			rows[k] = row
		}
	}
}

func without(row []*multiQuery, mq *multiQuery) []*multiQuery {
	for i, o := range row {
		if o == mq {
			return append(row[:i], row[i+1:]...)
		}
	}
	return row
}

// visitLocked builds the visit list of one edge update: the live queries
// in the always row, the row of its endpoint-label pair and the rows of
// its two endpoint labels, merged in registration order — the order the
// visit-everything driver used, so which query's deltas leave first does
// not depend on the index — in O(row lengths). A query with both endpoint
// labels heads two rows at once and is taken once. Labels are read from
// the shared graph now, before the update applies: an earlier update of
// the batch may have created the vertex.
func (m *MultiEngine) visitLocked(upd stream.Update) []*multiQuery {
	d := &m.dispatch
	lx, ly := m.g.Label(upd.U), m.g.Label(upd.V)
	rows := [4][]*multiQuery{d.always, d.byPair[pairKey(lx, ly)], d.byLabel[uint64(lx)]}
	if ly != lx {
		rows[3] = d.byLabel[uint64(ly)]
	}
	v := d.visit[:0]
	for {
		first := -1
		for i, row := range rows {
			if len(row) > 0 && (first < 0 || row[0].seq < rows[first][0].seq) {
				first = i
			}
		}
		if first < 0 {
			break
		}
		mq := rows[first][0]
		rows[first] = rows[first][1:]
		if mq.fail.err == nil && (len(v) == 0 || v[len(v)-1] != mq) {
			v = append(v, mq)
		}
	}
	d.visit = v
	return v
}

// foldLocked books into mq's engine the label-safe updates the index has
// kept away from it since the last fold: every routed update it is not yet
// square with. The driver folds every query when a call ends (endLocked),
// and a failing query when it fails, so whoever reads a query's Stats or
// latency histogram between calls sees the totals a visit-everything
// driver would have produced, and the per-update step never touches a
// skipped query.
func (m *MultiEngine) foldLocked(mq *multiQuery) {
	if n := m.dispatch.counters.Updates - mq.squared; n > 0 {
		mq.eng.accountSafe(classSafeLabel, n, 0, 0)
		mq.squared += n
		mq.folded += n
	}
}

// DispatchCounters returns the dispatch index's tally.
func (m *MultiEngine) DispatchCounters() DispatchCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dispatch.counters
}
