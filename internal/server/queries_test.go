package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paracosm/internal/core"
	"paracosm/internal/obs"
)

// TestServeStageCountsMatchIngested is the serving-layer half of the
// stage reconciliation invariant: after a register / subscribe / stream
// / flush round-trip, every per-update stage histogram holds exactly
// Metrics().Ingested samples, the fanout stage holds one sample per
// nonzero delta, and the sampled subscriber-tail stages (queue dwell,
// wire write) saw every delivered delta frame.
func TestServeStageCountsMatchIngested(t *testing.T) {
	g := uniformGraph(120)
	q := singleEdgeQuery(t)
	tr := obs.NewTracer(1 << 12)
	srv := startTestServer(t, g, Config{
		SubscriberQueue: 1 << 14,
		Tracer:          tr,
		Engine:          []core.Option{core.Threads(2)},
	})

	cl, err := Dial(srv.Addr(), DialConfig{DeltaBuffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("stages", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	if err := cl.Subscribe("stages"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	updates := insertOnlyStream(rng, g, 500, 1)
	if n, err := cl.Send(updates); err != nil || n != len(updates) {
		t.Fatalf("send: %d, %v", n, err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	// The flush barrier guarantees every delta frame for the accepted
	// updates was WRITTEN before the flush reply (same FIFO), so the
	// subscriber-tail stage observations have all happened; the frames are
	// already buffered client-side.
	frames := 0
drain:
	for {
		select {
		case d := <-cl.Deltas():
			if d.Dropped != 0 {
				t.Fatalf("deltas dropped: %d", d.Dropped)
			}
			frames++
		default:
			break drain
		}
	}

	m := srv.Metrics()
	if m.Ingested != uint64(len(updates)) {
		t.Fatalf("ingested %d, want %d", m.Ingested, len(updates))
	}
	st := tr.Stages()
	for _, stg := range obs.UpdateStages {
		if got := st.Hist(stg).Count(); got != m.Ingested {
			t.Errorf("stage %v count = %d, want ingested %d", stg, got, m.Ingested)
		}
	}
	// Every queued update waited measurably: the wait stages must carry
	// real time on the serve path (they are only ~0 in direct bench mode).
	if st.Hist(obs.StageIngestWait).Count() != 0 && st.Hist(obs.StageIngestWait).Max() == 0 {
		t.Error("ingest-wait stage recorded no time on the queued serve path")
	}
	if got := st.Hist(obs.StageFanout).Count(); got != m.Deltas {
		t.Errorf("fanout count = %d, want deltas %d", got, m.Deltas)
	}
	for _, stg := range []obs.Stage{obs.StageSubQueue, obs.StageWire} {
		if got := st.Hist(stg).Count(); got != uint64(frames) {
			t.Errorf("stage %v count = %d, want delivered frames %d", stg, got, frames)
		}
	}
	// Server lifecycle counters reconcile with the metrics snapshot.
	if got := tr.ServerCount(obs.SrvIngest); got != m.Ingested {
		t.Errorf("srv:ingest count = %d, want %d", got, m.Ingested)
	}
	if got := tr.ServerCount(obs.SrvRegister); got != 1 {
		t.Errorf("srv:register count = %d, want 1", got)
	}
}

// queriesJSON hits the /queries handler with the given query string and
// decodes the rows (2xx expected).
func queriesJSON(t *testing.T, srv *Server, rawQuery string) []QueryRow {
	t.Helper()
	req := httptest.NewRequest("GET", "/queries?"+rawQuery, nil)
	rec := httptest.NewRecorder()
	srv.QueriesHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /queries?%s: %d %s", rawQuery, rec.Code, rec.Body.String())
	}
	var rows []QueryRow
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("decode /queries?%s: %v\n%s", rawQuery, err, rec.Body.String())
	}
	return rows
}

// TestQueriesEndpoint covers the /queries debug endpoint: every live
// query appears with its processed-update count — whether its engine saw
// the updates ("visited") or the dispatch index accounted them in bulk —
// sort keys and ?n= truncation work, unknown keys are a 400. The two
// paracosm_dispatch_* counters on /metrics are the same tally summed over
// queries.
func TestQueriesEndpoint(t *testing.T) {
	g := uniformGraph(100)
	q := singleEdgeQuery(t)
	srv := startTestServer(t, g, Config{Engine: []core.Option{core.Threads(1)}})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, name := range []string{"beta", "alpha"} {
		if err := cl.Register(name, "GraphFlow", q); err != nil {
			t.Fatal(err)
		}
	}
	// The graph has label 0 only: no update ever reaches this one.
	idle, err := BuildQuery([]uint32{1, 2}, [][3]uint32{{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("idle", "GraphFlow", idle); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	updates := insertOnlyStream(rng, g, 40, 1)
	if _, err := cl.Send(updates); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	// Default sort (updates desc, name asc tiebreak): both queries saw
	// every update, so the tiebreak decides.
	rows := queriesJSON(t, srv, "")
	if len(rows) != 3 || rows[0].Name != "alpha" || rows[1].Name != "beta" || rows[2].Name != "idle" {
		t.Fatalf("default rows = %+v, want alpha,beta,idle", rows)
	}
	for _, r := range rows {
		if r.Updates != len(updates) {
			t.Errorf("query %q updates = %d, want %d", r.Name, r.Updates, len(updates))
		}
		if r.Name == "idle" {
			if r.Visited != 0 || r.Safe != len(updates) || r.Matches != 0 {
				t.Errorf("idle row = %+v, want every update bulk-accounted as safe", r)
			}
			continue
		}
		if r.Visited != len(updates) {
			t.Errorf("query %q visited = %d, want %d", r.Name, r.Visited, len(updates))
		}
		if r.Matches == 0 {
			t.Errorf("query %q reports no matches over an all-matching stream", r.Name)
		}
		if r.MaxMicros < r.P99Micros || r.P99Micros < r.P50Micros {
			t.Errorf("query %q quantiles not monotone: %+v", r.Name, r)
		}
	}
	if rows := queriesJSON(t, srv, "by=name"); rows[0].Name != "alpha" {
		t.Errorf("by=name rows = %+v", rows)
	}
	if rows := queriesJSON(t, srv, "by=latency&n=1"); len(rows) != 1 {
		t.Errorf("n=1 returned %d rows", len(rows))
	}
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("paracosm_dispatch_visited_total %d\n", 2*len(updates)),
		fmt.Sprintf("paracosm_dispatch_skipped_total %d\n", len(updates)),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	for _, bad := range []string{"by=bogus", "n=x", "n=-2"} {
		req := httptest.NewRequest("GET", "/queries?"+bad, nil)
		rec := httptest.NewRecorder()
		srv.QueriesHandler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET /queries?%s: %d, want 400", bad, rec.Code)
		}
	}
}

// TestWriteQueryMetricsEscaping: query names are client-supplied label
// values; quotes, backslashes and newline-hostile characters must reach
// /metrics escaped, one labeled gauge per live query.
func TestWriteQueryMetricsEscaping(t *testing.T) {
	g := uniformGraph(30)
	q := singleEdgeQuery(t)
	srv := startTestServer(t, g, Config{Engine: []core.Option{core.Threads(1)}})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(`ev"il\q`, "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := cl.Send(insertOnlyStream(rng, g, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := srv.WriteQueryMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `paracosm_query_updates{name="ev\"il\\q"} 10`) {
		t.Errorf("escaped labeled series missing:\n%s", out)
	}
	for _, series := range []string{
		"paracosm_query_escalation_rate{", "paracosm_query_matches{",
		"paracosm_query_latency_p50_seconds{", "paracosm_query_latency_p99_seconds{",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("missing %s series:\n%s", series, out)
		}
	}
}
