package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"paracosm/internal/obs"
)

// QueryRow is one live query's row on the /queries debug endpoint (and
// the JSON shape `paracosm top` decodes). Latency quantiles come from the
// per-query histogram (core.TrackQueries, always on in serving mode) and
// are reported in integer microseconds to keep the rows jq/column
// friendly. Visited is how many of Updates ran through the query's engine;
// the rest are label-safe updates the engine's dispatch index accounted in
// bulk (core.QuerySnapshot.Visited).
type QueryRow struct {
	Name           string  `json:"name"`
	Updates        int     `json:"updates"`
	Visited        int     `json:"visited"`
	Safe           int     `json:"safe_updates"`
	Unsafe         int     `json:"unsafe_updates"`
	Escalations    int     `json:"escalations"`
	EscalationRate float64 `json:"escalation_rate"`
	Positive       uint64  `json:"positive"`
	Negative       uint64  `json:"negative"`
	Matches        uint64  `json:"matches"`
	Nodes          uint64  `json:"nodes"`
	P50Micros      int64   `json:"p50_us"`
	P90Micros      int64   `json:"p90_us"`
	P99Micros      int64   `json:"p99_us"`
	MaxMicros      int64   `json:"max_us"`
}

// queryRows snapshots every live query as a QueryRow, in registration
// order (sort is the endpoint's job).
func (s *Server) queryRows() []QueryRow {
	snaps := s.multi.QuerySnapshots()
	rows := make([]QueryRow, 0, len(snaps))
	for _, qs := range snaps {
		st := qs.Stats
		rows = append(rows, QueryRow{
			Name:           qs.Name,
			Updates:        st.Updates,
			Visited:        qs.Visited,
			Safe:           st.SafeUpdates,
			Unsafe:         st.UnsafeUpdates,
			Escalations:    st.Escalations,
			EscalationRate: st.EscalationRate(),
			Positive:       st.Positive,
			Negative:       st.Negative,
			Matches:        st.Positive + st.Negative,
			Nodes:          st.Nodes,
			P50Micros:      qs.P50.Microseconds(),
			P90Micros:      qs.P90.Microseconds(),
			P99Micros:      qs.P99.Microseconds(),
			MaxMicros:      qs.Max.Microseconds(),
		})
	}
	return rows
}

// queriesSortKeys maps the /queries ?by= values to their ordering. Every
// key except "name" sorts descending (hottest first), with name ascending
// as the tiebreak, so the endpoint's default reads as a leaderboard.
var queriesSortKeys = map[string]func(a, b QueryRow) bool{
	"updates":     func(a, b QueryRow) bool { return a.Updates > b.Updates },
	"matches":     func(a, b QueryRow) bool { return a.Matches > b.Matches },
	"escalations": func(a, b QueryRow) bool { return a.Escalations > b.Escalations },
	"latency":     func(a, b QueryRow) bool { return a.P99Micros > b.P99Micros },
	"nodes":       func(a, b QueryRow) bool { return a.Nodes > b.Nodes },
	"name":        nil, // ascending by name (the universal tiebreak)
}

// QueriesHandler serves the /queries debug endpoint: a JSON array of
// queryRows, sorted by ?by= (updates — the default — matches,
// escalations, latency, nodes, or name; unknown keys are a 400) and
// optionally truncated by ?n=. Mount it on the debug mux next to
// /metrics.
func (s *Server) QueriesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		by := r.URL.Query().Get("by")
		if by == "" {
			by = "updates"
		}
		less, ok := queriesSortKeys[by]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown sort key %q", by), http.StatusBadRequest)
			return
		}
		rows := s.queryRows()
		sort.Slice(rows, func(i, j int) bool {
			if less != nil {
				a, b := rows[i], rows[j]
				if less(a, b) {
					return true
				}
				if less(b, a) {
					return false
				}
			}
			return rows[i].Name < rows[j].Name
		})
		if ns := r.URL.Query().Get("n"); ns != "" {
			n := 0
			if _, err := fmt.Sscanf(ns, "%d", &n); err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(rows) {
				rows = rows[:n]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rows)
	})
}

// WriteQueryMetrics emits one labeled series per live query in Prometheus
// text exposition format — the `paracosm_query_*{name="..."}` view behind
// /metrics. These are gauges, not counters: a query's series disappears
// (and its tally restarts) when it deregisters; the monotonic aggregate
// counterparts live in WriteMetrics. Query names are client-supplied, so
// label values are escaped.
func (s *Server) WriteQueryMetrics(w io.Writer) error {
	rows := s.queryRows()
	type metric struct {
		name, help string
		v          func(QueryRow) string
	}
	metrics := []metric{
		{"paracosm_query_updates", "Updates processed by one live query.",
			func(r QueryRow) string { return fmt.Sprintf("%d", r.Updates) }},
		{"paracosm_query_safe_updates", "Updates classified safe for one live query.",
			func(r QueryRow) string { return fmt.Sprintf("%d", r.Safe) }},
		{"paracosm_query_escalations", "Updates escalated to the parallel phase for one live query.",
			func(r QueryRow) string { return fmt.Sprintf("%d", r.Escalations) }},
		{"paracosm_query_escalation_rate", "Fraction of one live query's updates that escalated.",
			func(r QueryRow) string { return fmt.Sprintf("%g", r.EscalationRate) }},
		{"paracosm_query_matches", "Incremental matches (positive + negative) for one live query.",
			func(r QueryRow) string { return fmt.Sprintf("%d", r.Matches) }},
		{"paracosm_query_latency_p50_seconds", "Median per-update latency of one live query.",
			func(r QueryRow) string { return fmt.Sprintf("%g", float64(r.P50Micros)/1e6) }},
		{"paracosm_query_latency_p99_seconds", "99th percentile per-update latency of one live query.",
			func(r QueryRow) string { return fmt.Sprintf("%g", float64(r.P99Micros)/1e6) }},
	}
	for _, m := range metrics {
		if err := obs.WriteFamily(w, m.name, "gauge", m.help); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "%s{name=\"%s\"} %s\n", m.name, obs.EscapeLabel(r.Name), m.v(r)); err != nil {
				return err
			}
		}
	}
	return nil
}
