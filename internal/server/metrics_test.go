package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/core"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// metricValue extracts one series' value from Prometheus text exposition.
func metricValue(t *testing.T, text, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(line[len(name)+1:]), 10, 64)
		if err != nil {
			t.Fatalf("parse %s: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %s missing from metrics output:\n%s", name, text)
	return 0
}

// TestServerMetricsMonotonicAcrossDisconnect: a client registers a query,
// streams matches through it, and disconnects (which deregisters the
// query). The query-work counters must not shrink — the deregistered
// engine's totals are retained in the MultiEngine's closed tally — and
// the disconnect itself must be visible in queries_closed_total.
func TestServerMetricsMonotonicAcrossDisconnect(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := uniformGraph(24)
	q := singleEdgeQuery(t)
	s := insertOnlyStream(rng, g, 60, 1)

	srv := startTestServer(t, g, Config{
		Engine: []core.Option{core.Threads(1)},
	})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("q1", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Send(s); err != nil || n != len(s) {
		t.Fatalf("send: %d, %v", n, err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	before := srv.Metrics()
	if before.Stats.Updates != len(s) {
		t.Fatalf("Stats.Updates = %d, want %d", before.Stats.Updates, len(s))
	}
	// Every label-0 edge insert yields two matches of the one-edge query.
	if want := 2 * uint64(len(s)); before.Stats.Positive != want {
		t.Fatalf("Stats.Positive = %d, want %d", before.Stats.Positive, want)
	}
	if before.QueriesClosed != 0 || before.Queries != 1 {
		t.Fatalf("before disconnect: closed=%d live=%d", before.QueriesClosed, before.Queries)
	}

	// Disconnect: teardown deregisters q1 and closes its engine.
	cl.Close()
	waitUntil(t, "query deregistered", func() bool { return srv.NumQueries() == 0 })

	after := srv.Metrics()
	if after.QueriesClosed != 1 {
		t.Fatalf("QueriesClosed = %d, want 1", after.QueriesClosed)
	}
	if after.Stats.Updates < before.Stats.Updates ||
		after.Stats.Positive < before.Stats.Positive ||
		after.Stats.Negative < before.Stats.Negative ||
		after.Stats.SafeUpdates < before.Stats.SafeUpdates ||
		after.Stats.Nodes < before.Stats.Nodes {
		t.Fatalf("query totals shrank across disconnect:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.Stats.Updates != before.Stats.Updates || after.Stats.Positive != before.Stats.Positive {
		t.Fatalf("query totals changed with no further updates:\nbefore %+v\nafter  %+v", before, after)
	}

	// The exposition format carries the same retained totals.
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if got := metricValue(t, text, "paracosm_query_updates_total"); got != uint64(after.Stats.Updates) {
		t.Fatalf("exposition updates_total = %d, snapshot %d", got, after.Stats.Updates)
	}
	if got := metricValue(t, text, "paracosm_server_queries_closed_total"); got != 1 {
		t.Fatalf("exposition queries_closed_total = %d, want 1", got)
	}
	if got := metricValue(t, text, "paracosm_query_matches_positive_total"); got != after.Stats.Positive {
		t.Fatalf("exposition matches_positive_total = %d, snapshot %d", got, after.Stats.Positive)
	}
}

// scrapeText GETs /metrics from h and returns the exposition text.
func scrapeText(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// scrapeMetrics GETs /metrics from h and returns the metric family names
// (from the # TYPE lines, sorted) and every unlabelled integer sample.
func scrapeMetrics(t *testing.T, h http.Handler) ([]string, map[string]uint64) {
	t.Helper()
	var names []string
	values := map[string]uint64{}
	for _, line := range strings.Split(scrapeText(t, h), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			values[name] = n
		}
	}
	sort.Strings(names)
	return names, values
}

// TestMetricsReconcileAcrossDeregistration: three queries share a stream
// of inserts and deletes, one deregisters halfway, and a scrape of the
// debug mux as `paracosm serve` builds it must report the engine work
// once: the unlabelled engine counters equal the query totals summed over
// live and deregistered queries. The family-name set is pinned, so a
// refactor of where the counters come from cannot drop or rename one.
func TestMetricsReconcileAcrossDeregistration(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := algotest.RandomGraph(rng, 48, 70, 2, 1)
	tr := obs.NewTracer(1 << 10)
	srv := startTestServer(t, g, Config{Tracer: tr, Engine: []core.Option{core.Threads(2)}})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := map[string]*query.Graph{"edge": singleEdgeQuery(t)}
	if queries["label1"], err = buildQuery([]uint32{1, 1}, [][3]uint32{{0, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if queries["path"] = algotest.RandomQuery(rng, g, 3); queries["path"] == nil {
		t.Skip("no query found")
	}
	for _, name := range []string{"edge", "label1", "path"} {
		if err := cl.Register(name, "GraphFlow", queries[name]); err != nil {
			t.Fatal(err)
		}
	}
	inserts := insertOnlyStream(rng, g, 300, 1)
	send := func(s stream.Stream) {
		t.Helper()
		if n, err := cl.Send(s); err != nil || n != len(s) {
			t.Fatalf("send: %d, %v", n, err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(inserts[:150])
	if err := cl.Deregister("label1"); err != nil {
		t.Fatal(err)
	}
	deletes := make(stream.Stream, 60)
	for i, upd := range inserts[:60] {
		upd.Op = stream.DeleteEdge
		deletes[i] = upd
	}
	send(append(inserts[150:len(inserts):len(inserts)], deletes...))

	names, v := scrapeMetrics(t, obs.NewMuxReady(tr, nil, srv.WriteMetrics, srv.WriteQueryMetrics))
	if v["paracosm_query_updates_total"] == 0 || v["paracosm_query_matches_negative_total"] == 0 ||
		v["paracosm_query_safe_updates_total"] == 0 || v["paracosm_server_queries_closed_total"] != 1 {
		t.Fatalf("stream did not exercise the counters: %v", v)
	}
	for engine, query := range map[string]string{
		"paracosm_updates_total":      "paracosm_query_updates_total",
		"paracosm_safe_updates_total": "paracosm_query_safe_updates_total",
		"paracosm_search_nodes_total": "paracosm_query_nodes_total",
	} {
		if v[engine] != v[query] {
			t.Errorf("%s = %d, %s = %d", engine, v[engine], query, v[query])
		}
	}
	if pn := v["paracosm_query_matches_positive_total"] + v["paracosm_query_matches_negative_total"]; v["paracosm_matches_total"] != pn {
		t.Errorf("paracosm_matches_total = %d, positive + negative = %d", v["paracosm_matches_total"], pn)
	}
	if !slices.Equal(names, metricFamilies) {
		t.Errorf("metric families changed:\n got %q\nwant %q", names, metricFamilies)
	}
}

// metricFamilies is every family /metrics serves for a traced server
// without a WAL, sorted.
var metricFamilies = []string{
	"paracosm_dispatch_skipped_total", "paracosm_dispatch_visited_total",
	"paracosm_escalations_total", "paracosm_matches_total",
	"paracosm_query_escalation_rate", "paracosm_query_escalations",
	"paracosm_query_latency_p50_seconds", "paracosm_query_latency_p99_seconds",
	"paracosm_query_matches", "paracosm_query_matches_negative_total",
	"paracosm_query_matches_positive_total", "paracosm_query_nodes_total",
	"paracosm_query_safe_updates", "paracosm_query_safe_updates_total",
	"paracosm_query_updates", "paracosm_query_updates_total",
	"paracosm_safe_updates_total", "paracosm_search_nodes_total",
	"paracosm_server_connections", "paracosm_server_conns_rejected_total",
	"paracosm_server_conns_total", "paracosm_server_deltas_dropped_total",
	"paracosm_server_deltas_total", "paracosm_server_events_total",
	"paracosm_server_ingest_queue_depth", "paracosm_server_queries",
	"paracosm_server_queries_closed_total", "paracosm_server_subscriptions",
	"paracosm_server_updates_ingested_total", "paracosm_server_updates_invalid_total",
	"paracosm_server_updates_rejected_total",
	"paracosm_stage_assemble_seconds", "paracosm_stage_coalesce_seconds",
	"paracosm_stage_commit_seconds", "paracosm_stage_fanout_seconds",
	"paracosm_stage_ingest_wait_seconds", "paracosm_stage_post_apply_seconds",
	"paracosm_stage_pre_apply_seconds", "paracosm_stage_snapshot_seconds",
	"paracosm_stage_sub_queue_seconds", "paracosm_stage_wal_append_seconds",
	"paracosm_stage_wire_write_seconds",
	"paracosm_timeouts_total", "paracosm_trace_dropped_total",
	"paracosm_unsafe_updates_total",
	"paracosm_update_ads_seconds", "paracosm_update_find_seconds", "paracosm_update_total_seconds",
	"paracosm_updates_total",
	"paracosm_window_annihilated_total", "paracosm_window_coalesced_total",
}
