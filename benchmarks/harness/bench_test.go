package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// smokeScale shrinks every workload to a toy: graphs of a few thousand
// vertices, passes of a few hundred to a few thousand updates.
const smokeScale = 0.02

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeOptions builds the server once for every run of the test.
func smokeOptions(t *testing.T) Options {
	t.Helper()
	dir := t.TempDir()
	bin, err := buildParacosm(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Seed: 7, Seconds: 1, Scale: smokeScale, Paracosm: bin, OutDir: dir}
}

// children lists the live child processes of this process.
func children(t *testing.T) []string {
	t.Helper()
	var out []string
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc")
	}
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // raced with an exit
		}
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			out = append(out, e.Name()+" "+s[:strings.LastIndexByte(s, ')')+1])
		}
	}
	return out
}

func checkResult(t *testing.T, r *Result, defs []MetricDef) {
	t.Helper()
	if !r.Correct() || r.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d: %v", r.Workload, r.Attempted, r.Failed, r.Failures)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, contract lists %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", r.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, contract says %q", r.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
	}
	// The line the driver parses: exactly four keys, metrics as objects.
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(r.ContractLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
		t.Errorf("%s: contract line %q does not have the contract's shape (%v)", r.Workload, r.ContractLine(), err)
	}
	if strings.ContainsRune(r.ContractLine(), '\n') {
		t.Errorf("%s: contract line spans lines", r.Workload)
	}
}

// TestSmoke runs every workload end to end and up the ladder at toy
// scale. It asserts shape, the correctness gates and cleanliness — never
// a time: the numbers of a toy run on a shared box mean nothing.
func TestSmoke(t *testing.T) {
	o := smokeOptions(t)
	for _, sp := range Specs() {
		o.Workload = sp.Name
		o.Trace = false
		r, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		checkResult(t, r, EndToEnd)
		for _, d := range EndToEnd {
			// A toy pass costs the server less than one 10 ms tick of
			// /proc's CPU clock; at full size a pass is fifty ticks.
			if sp.Serve && d.Name == "cpu_us_per_update" {
				continue
			}
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; the contract wants metrics that are never 0", sp.Name, d.Name, r.Metrics[d.Name].Value)
			}
		}

		o.Trace = true
		r, err = Run(o)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.Name, err)
		}
		checkResult(t, r, PerLayer)
		b, err := os.ReadFile(r.TraceFile)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) == 0 {
			t.Errorf("%s: trace file %s: %v, %d spans", sp.Name, r.TraceFile, err, len(tf.Spans))
		}
		// A layer's self time is its rung minus the rung below, so the
		// self times add up to the top rung.
		sum := 0.0
		for _, v := range tf.SelfUS {
			sum += v
		}
		top := r.Metrics["ladder.r5_tracer_us_per_update"].Value
		if math.Abs(sum-top) > 0.15*top {
			t.Errorf("%s: ladder self times sum to %v, top rung is %v", sp.Name, sum, top)
		}
		for _, s := range tf.Spans {
			if s.End < s.Start || s.Parent >= s.ID {
				t.Errorf("%s: malformed span %+v", sp.Name, s)
				break
			}
		}
	}
	if kids := children(t); len(kids) != 0 {
		t.Errorf("child processes left behind: %v", kids)
	}
	left, err := filepath.Glob(filepath.Join(o.OutDir, "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v (%v)", left, err)
	}
}

// TestSameSeedSameInputs pins the input contract: a seed fixes the
// inputs, and another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range Specs() {
		a, err := Generate(sp, 3, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(sp, 3, smokeScale)
		c, _ := Generate(sp, 4, smokeScale)
		if len(a.Fwd) != len(a.Bwd) || len(a.Fwd) == 0 {
			t.Errorf("%s: halves of %d and %d updates", sp.Name, len(a.Fwd), len(a.Bwd))
		}
		same, differs := len(a.Fwd) == len(b.Fwd), len(a.Fwd) != len(c.Fwd)
		for i := range a.Fwd {
			same = same && a.Fwd[i] == b.Fwd[i]
			differs = differs || (i < len(c.Fwd) && a.Fwd[i] != c.Fwd[i])
		}
		if !same || !differs {
			t.Errorf("%s: same seed same stream %v, other seed other stream %v", sp.Name, same, differs)
		}
		g := a.Base.Clone()
		if err := a.Fwd.ApplyAll(g); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
		if err := a.Bwd.ApplyAll(g); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
		if g.NumEdges() != a.Base.NumEdges() {
			t.Errorf("%s: round trip ends at %d edges, base has %d", sp.Name, g.NumEdges(), a.Base.NumEdges())
		}
		seen := map[string]bool{}
		for _, q := range a.Queries {
			if seen[q.Name] {
				t.Errorf("%s: duplicate query name %s", sp.Name, q.Name)
			}
			seen[q.Name] = true
		}
	}
}

// TestContractInStep holds BENCHMARK.json to what the code reports and
// to the limits the acceptance driver refuses files over.
func TestContractInStep(t *testing.T) {
	c, err := LoadContract("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []ContractMetric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in the code", what, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", what, i, g, d)
			}
			if !nameRE.MatchString(g.Name) || len(g.Unit) > 16 {
				t.Errorf("%s: name %q or unit %q outside the contract's limits", what, g.Name, g.Unit)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: %s has bound %v", what, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, EndToEnd, true)
	same("per_layer", c.PerLayer, PerLayer, false)
	if len(c.PerLayer) > 128 || len(c.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(c.PerLayer), len(c.EndToEnd))
	}
	specs := Specs()
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(c.Workloads), len(specs))
	}
	for i, sp := range specs {
		if c.Workloads[i].Name != sp.Name || c.Workloads[i].Why != sp.Why || len(sp.Why) > 200 || strings.ContainsRune(sp.Why, '\n') {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q / %q", i, c.Workloads[i], sp.Name, sp.Why)
		}
	}
	setupBound, maxBound := 0.0, 0.0
	for _, m := range c.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be listed and carry the largest bound; has %v of %v", setupBound, maxBound)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := exclusiveQuartiles([]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}); s != 1 {
		t.Errorf("spread %v, want 1", s)
	}
}
