package harness

import (
	"fmt"
	"runtime"
)

// Options are the knobs of one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Scale shrinks graphs and streams (1 is the benchmark's size).
	Scale float64
	// Paracosm is a built `paracosm` binary for the serve workloads and
	// the ladder's server rungs; when empty it is built into OutDir.
	Paracosm string
	// OutDir receives trace files and the run's scratch directory, which
	// is removed before Run returns.
	OutDir string
}

// Run generates one workload's inputs from the seed and measures it:
// the eight end-to-end metrics, or with Trace the per-layer ones.
func Run(o Options) (*Result, error) {
	sp, err := SpecByName(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seconds < 1 {
		return nil, fmt.Errorf("harness: -seconds must be at least 1")
	}
	runtime.GOMAXPROCS(Threads())
	in, err := Generate(sp, o.Seed, o.Scale)
	if err != nil {
		return nil, err
	}
	switch {
	case o.Trace:
		return runTrace(in, o)
	case sp.Serve:
		return runServe(in, o)
	}
	return runLibrary(in, o.Seconds)
}
