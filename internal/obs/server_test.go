package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	tr := NewTracer(16)
	tr.Update(Event{Op: "+e", U: 1, V: 2, Class: ClassUnsafe, Nodes: 10, Matches: 1,
		Find: time.Millisecond, Total: time.Millisecond})
	tr.Update(Event{Op: "-e", U: 3, V: 4, Class: ClassSafeADS, Total: time.Microsecond})

	extra := func(w io.Writer) error {
		return WriteSeries(w, []Series{Counter("paracosm_updates_total", "Updates processed.", 2)})
	}
	srv, err := StartServer("127.0.0.1:0", tr, extra)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := getBody(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body := getBody(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{"paracosm_updates_total 2", "paracosm_update_total_seconds_count 2"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = getBody(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace: status %d", code)
	}
	evs, err := ReadJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/trace not parseable JSONL: %v\n%s", err, body)
	}
	if len(evs) != 2 || evs[0].Class != ClassUnsafe || evs[1].Class != ClassSafeADS {
		t.Fatalf("/trace events = %+v", evs)
	}

	// ?n limits to the most recent K events.
	_, body = getBody(t, base+"/trace?n=1")
	evs, err = ReadJSONL(strings.NewReader(body))
	if err != nil || len(evs) != 1 || evs[0].Class != ClassSafeADS {
		t.Fatalf("/trace?n=1 = %+v (err %v)", evs, err)
	}
	if code, _ := getBody(t, base+"/trace?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/trace?n=bogus: status %d, want 400", code)
	}

	if code, body := getBody(t, base+"/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: %d", code)
	}
	if code, _ := getBody(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: status %d", code)
	}
}

func TestServerCloseIdempotentEnough(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", NewTracer(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A second Close must not hang or panic.
	_ = srv.Close()
}
