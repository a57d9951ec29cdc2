package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"paracosm/internal/server"
)

// topMain implements `paracosm top`: poll a serve instance's /queries
// debug endpoint and render the N hottest standing queries, htop-style.
// One iteration with -once (for scripts); otherwise the screen refreshes
// every -interval until interrupted.
func topMain(args []string) {
	fs := flag.NewFlagSet("paracosm top", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "serve instance's debug address (the -debug-addr of paracosm serve)")
		n        = fs.Int("n", 10, "number of queries to show")
		by       = fs.String("by", "updates", "sort key: updates | matches | escalations | latency | nodes | name")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval")
		once     = fs.Bool("once", false, "render a single snapshot and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: paracosm top [-addr host:port] [-n 10] [-by updates] [-interval 2s] [-once]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	endpoint := fmt.Sprintf("http://%s/queries?by=%s&n=%d", *addr, url.QueryEscape(*by), *n)
	for {
		rows, err := fetchQueryRows(endpoint)
		if err != nil {
			fatal(err)
		}
		if !*once {
			// ANSI clear screen + home, like watch(1).
			fmt.Print("\x1b[2J\x1b[H")
			fmt.Printf("paracosm top — %s — %d queries shown — %s\n\n", *addr, len(rows), time.Now().Format("15:04:05"))
		}
		renderQueryRows(os.Stdout, rows)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// fetchQueryRows GETs and decodes one /queries snapshot.
func fetchQueryRows(endpoint string) ([]server.QueryRow, error) {
	resp, err := http.Get(endpoint)
	if err != nil {
		return nil, fmt.Errorf("top: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("top: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rows []server.QueryRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("top: decode /queries: %w", err)
	}
	return rows, nil
}

// renderQueryRows prints the rows as an aligned table.
func renderQueryRows(w io.Writer, rows []server.QueryRow) {
	fmt.Fprintf(w, "%-24s %10s %10s %8s %8s %6s %10s %12s %9s %9s\n",
		"QUERY", "UPDATES", "VISITED", "SAFE", "ESCAL", "ESC%", "MATCHES", "NODES", "P50", "P99")
	for _, r := range rows {
		name := r.Name
		if len(name) > 24 {
			name = name[:21] + "..."
		}
		fmt.Fprintf(w, "%-24s %10d %10d %8d %8d %5.1f%% %10d %12d %9s %9s\n",
			name, r.Updates, r.Visited, r.Safe, r.Escalations, 100*r.EscalationRate,
			r.Matches, r.Nodes,
			(time.Duration(r.P50Micros) * time.Microsecond).String(),
			(time.Duration(r.P99Micros) * time.Microsecond).String())
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no live queries)")
	}
}
