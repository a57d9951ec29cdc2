package obs

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// MetricsFunc appends extra Prometheus text exposition lines to the
// /metrics payload — how subsystems outside the tracer (e.g. the serving
// layer's connection/queue gauges) join the same scrape endpoint.
type MetricsFunc func(w io.Writer) error

// Series is one unlabelled sample of a Prometheus family, built by Counter
// or Gauge.
type Series struct {
	name, typ, help string
	v               uint64
}

// Counter is a counter family's one sample.
func Counter(name, help string, v uint64) Series { return Series{name, "counter", help, v} }

// Gauge is a gauge family's one sample.
func Gauge(name, help string, v uint64) Series { return Series{name, "gauge", help, v} }

// WriteSeries writes each series as a family of its own: the # HELP and
// # TYPE lines, then the one sample. Every unlabelled counter and gauge on
// /metrics is written here.
func WriteSeries(w io.Writer, series []Series) error {
	for _, s := range series {
		if err := WriteFamily(w, s.name, s.typ, s.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", s.name, s.v); err != nil {
			return err
		}
	}
	return nil
}

// WriteFamily writes a family's # HELP and # TYPE lines; a labelled
// family's samples follow them.
func WriteFamily(w io.Writer, name, typ, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// NewMuxReady builds the debug mux for a tracer, stdlib only:
//
//	/healthz         liveness probe ("ok")
//	/metrics         Prometheus text: tracer histograms + the extras' series
//	/trace           recent ring events as JSONL (?n=K limits to last K)
//	/debug/vars      expvar (memstats, cmdline)
//	/debug/pprof/*   runtime profiles
//
// The handler only reads tracer state, so it can serve while engines are
// mid-stream. Any extra MetricsFuncs are appended to the /metrics payload
// after the tracer's own series. Callers may mount additional debug
// routes (e.g. the serving layer's /queries endpoint) before passing the
// mux to StartHandler.
//
// ready gates readiness: while it is non-nil and returns false, /healthz
// answers 503 "recovering" — the readiness-vs-liveness split the
// durability layer needs, since a recovering server is alive (the process
// responds) but must not be routed traffic until the WAL replay has
// caught the graph up. A nil ready means always ready (plain liveness).
func NewMuxReady(t *Tracer, ready func() bool, extra ...MetricsFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil && !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "recovering")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := t.writePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
		for _, f := range extra {
			if err := f(w); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		evs := t.Ring().Snapshot()
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(evs) {
				evs = evs[len(evs)-n:]
			}
		}
		writeEventsJSONL(w, evs)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running debug HTTP server. Close shuts it down and joins
// the serving goroutine.
type Server struct {
	srv  *http.Server
	addr net.Addr
	done chan struct{}
}

// StartServer listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves
// the debug mux for t in a background goroutine until Close. Extra
// MetricsFuncs extend the /metrics payload (see NewMuxReady).
func StartServer(addr string, t *Tracer, extra ...MetricsFunc) (*Server, error) {
	return StartHandler(addr, NewMuxReady(t, nil, extra...))
}

// StartHandler is StartServer for a caller-built handler (e.g. a
// NewMuxReady mux with extra routes mounted).
func StartHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr(),
		done: make(chan struct{}),
	}
	go func() {
		// http.ErrServerClosed is the normal Close path; anything else
		// is reported through nothing — the probe endpoints simply stop
		// answering, which is what health checks are for.
		_ = s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0" listeners).
func (s *Server) Addr() string { return s.addr.String() }

// Close gracefully shuts the server down and waits for the serving
// goroutine to exit. Safe to call more than once.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
