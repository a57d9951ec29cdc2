package sjtree

import "paracosm/internal/query"

// JoinOrder returns the connected join-edge ordering chosen at Build.
func (a *SJTree) JoinOrder() []query.Edge {
	return append([]query.Edge(nil), a.order...)
}
