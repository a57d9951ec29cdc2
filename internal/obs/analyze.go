package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Analysis is the offline digest of a JSONL trace: the per-phase time
// breakdown and the top-k straggler updates, the two questions a trace
// dump exists to answer ("where did the time go" and "which updates").
// Serving-layer lifecycle events (Class "server") and pipeline stage
// events (Class "stage") are segregated into their own tallies — folding
// them into the update totals would skew the phase fractions and latency
// quantiles of serve-mode trace dumps with zero-duration srv:* rows.
type Analysis struct {
	Events      int // per-update engine events only
	ByClass     map[string]int
	Escalations int
	Timeouts    int
	Nodes       uint64
	Matches     uint64

	ADS, Find, Total time.Duration // summed per-phase time

	// P50/P90/P99/Max are quantiles of per-update Total latency,
	// computed exactly from the events by Summarize (no histogram error).
	P50, P90, P99, Max time.Duration

	// Stragglers holds the k slowest updates by Total, slowest first.
	Stragglers []Event

	// ServerEvents counts Class "server" rows; ByServerOp tallies them
	// per srv:* op (the Matches field carries each event's count).
	ServerEvents int
	ByServerOp   map[string]uint64

	// StageEvents counts per-update Class "stage" rows (one per applied
	// update in a lockstep-driven trace); Stages sums their per-stage
	// durations. WindowEvents counts per-window stage rows (Op "win",
	// one per window of Window(n)), whose coalescing time is summed into
	// the breakdown's Coalesce.
	StageEvents  int
	WindowEvents int
	Stages       StageBreakdown
}

// StageBreakdown is the summed pipeline stage time of a trace's stage
// events (see obs.Stage for the stage model). The first five stages are
// per-update; Coalesce is per-window.
type StageBreakdown struct {
	IngestWait, Assemble, PreApply, Commit, PostApply time.Duration
	Coalesce                                          time.Duration
}

// total returns the summed time across all per-update stages (coalescing
// runs ahead of them and is reported separately).
func (b StageBreakdown) total() time.Duration {
	return b.IngestWait + b.Assemble + b.PreApply + b.Commit + b.PostApply
}

// Analyze digests a slice of trace events; topK bounds len(Stragglers).
func Analyze(evs []Event, topK int) Analysis {
	a := Analysis{ByClass: map[string]int{}, ByServerOp: map[string]uint64{}}
	if len(evs) == 0 {
		return a
	}
	updates := make([]Event, 0, len(evs))
	for i := range evs {
		ev := &evs[i]
		switch ev.Class {
		case ClassServer:
			a.ServerEvents++
			a.ByServerOp[ev.Op] += ev.Matches
			continue
		case ClassStage:
			if ev.Op == OpWindow {
				a.WindowEvents++
				a.Stages.Coalesce += ev.Coalesce
				continue
			}
			a.StageEvents++
			a.Stages.IngestWait += ev.IngestWait
			a.Stages.Assemble += ev.Assemble
			a.Stages.PreApply += ev.PreApply
			a.Stages.Commit += ev.Commit
			a.Stages.PostApply += ev.PostApply
			continue
		}
		a.Events++
		a.ByClass[ev.Class]++
		if ev.Escalated {
			a.Escalations++
		}
		if ev.Timeout {
			a.Timeouts++
		}
		a.Nodes += ev.Nodes
		a.Matches += ev.Matches
		a.ADS += ev.ADS
		a.Find += ev.Find
		a.Total += ev.Total
		updates = append(updates, *ev)
	}
	if a.Events == 0 {
		return a
	}
	totals := make([]time.Duration, 0, len(updates))
	for i := range updates {
		totals = append(totals, updates[i].Total)
	}
	sum := Summarize(totals)
	a.P50, a.P90, a.P99, a.Max = sum.P50, sum.P90, sum.P99, sum.Max

	if topK > 0 {
		sorted := append([]Event(nil), updates...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Total > sorted[j].Total })
		if topK > len(sorted) {
			topK = len(sorted)
		}
		a.Stragglers = sorted[:topK]
	}
	return a
}

// Render writes the analysis as a human-readable report.
func (a Analysis) Render(w io.Writer) {
	fmt.Fprintf(w, "events        : %d (%d escalated, %d timed out)\n",
		a.Events, a.Escalations, a.Timeouts)
	if a.ServerEvents > 0 {
		ops := make([]string, 0, len(a.ByServerOp))
		for op := range a.ByServerOp {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		fmt.Fprintf(w, "server events : %d —", a.ServerEvents)
		for _, op := range ops {
			fmt.Fprintf(w, " %s=%d", op, a.ByServerOp[op])
		}
		fmt.Fprintln(w)
	}
	if a.StageEvents > 0 {
		total := a.Stages.total()
		share := func(d time.Duration) float64 {
			if total <= 0 {
				return 0
			}
			return 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(w, "pipeline      : %d staged updates, %v total\n", a.StageEvents, total.Round(time.Microsecond))
		fmt.Fprintf(w, "stage shares  : ingest-wait %.1f%%  assemble %.1f%%  pre-apply %.1f%%  commit %.1f%%  post-apply %.1f%%\n",
			share(a.Stages.IngestWait), share(a.Stages.Assemble),
			share(a.Stages.PreApply), share(a.Stages.Commit), share(a.Stages.PostApply))
	}
	if a.WindowEvents > 0 {
		fmt.Fprintf(w, "windows       : %d coalesced in %v\n",
			a.WindowEvents, a.Stages.Coalesce.Round(time.Microsecond))
	}
	if a.Events == 0 {
		return
	}
	classes := make([]string, 0, len(a.ByClass))
	for c := range a.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "classes       :")
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%d", c, a.ByClass[c])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "work          : %d search nodes, %d matches\n", a.Nodes, a.Matches)
	other := a.Total - a.ADS - a.Find
	if other < 0 {
		other = 0
	}
	share := func(d time.Duration) float64 {
		if a.Total <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(a.Total)
	}
	fmt.Fprintf(w, "phase time    : total %v = ADS %v (%.1f%%) + find %v (%.1f%%) + other %v (%.1f%%)\n",
		a.Total.Round(time.Microsecond),
		a.ADS.Round(time.Microsecond), share(a.ADS),
		a.Find.Round(time.Microsecond), share(a.Find),
		other.Round(time.Microsecond), share(other))
	fmt.Fprintf(w, "update latency: p50 %v  p90 %v  p99 %v  max %v\n",
		a.P50.Round(time.Nanosecond), a.P90.Round(time.Nanosecond),
		a.P99.Round(time.Nanosecond), a.Max.Round(time.Nanosecond))
	if len(a.Stragglers) > 0 {
		fmt.Fprintf(w, "top %d stragglers (by total latency):\n", len(a.Stragglers))
		for i, ev := range a.Stragglers {
			flags := ""
			if ev.Escalated {
				flags += " escalated"
			}
			if ev.Timeout {
				flags += " TIMEOUT"
			}
			if ev.Resplits > 0 {
				flags += fmt.Sprintf(" resplits=%d", ev.Resplits)
			}
			fmt.Fprintf(w, "  %2d. seq=%-8d %s (%d,%d) class=%-11s nodes=%-9d matches=%-7d total=%v (ads %v, find %v)%s\n",
				i+1, ev.Seq, ev.Op, ev.U, ev.V, ev.Class, ev.Nodes, ev.Matches,
				ev.Total.Round(time.Microsecond), ev.ADS.Round(time.Microsecond),
				ev.Find.Round(time.Microsecond), flags)
		}
	}
}
