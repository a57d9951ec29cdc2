package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Contract is BENCHMARK.json.
type Contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []ContractMetric `json:"end_to_end"`
	PerLayer []ContractMetric `json:"per_layer"`
}

// ContractMetric is one metric of the contract; only end-to-end metrics
// carry a bound.
type ContractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadContract reads BENCHMARK.json.
func LoadContract(path string) (*Contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// AAOptions configure `bench aa`.
type AAOptions struct {
	Run        Options // Seconds, Scale, Paracosm, OutDir; Workload and Seed are set per run
	Runs       int
	Seed       int64
	Workloads  string
	Contract   string
	JSONPrefix string
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative: b is better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return math.NaN()
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// byMetric groups end-to-end results as workload → metric → values.
func byMetric(rs []*Result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// AA runs two sets of runs of the tree it was built from — the runs of
// the two sets alternating, every run a process of its own with its own
// seed — and prints, for every pair of workload and end-to-end metric,
// each set's median and quartiles, each set's spread, and how far the
// second median is from the first, against the contract's bound. It
// reports false when a pair is out of bounds: a spread wider than the
// bound, or medians further apart than the bound. Medians further apart
// than half the bound are marked, since that is the margin a bound is
// supposed to leave.
func AA(a AAOptions, w io.Writer) (bool, error) {
	c, err := LoadContract(a.Contract)
	if err != nil {
		return false, err
	}
	if a.Runs < 2 {
		return false, fmt.Errorf("-runs must be at least 2")
	}
	names := strings.Split(a.Workloads, ",")
	if a.Workloads == "all" {
		names = names[:0]
		for _, sp := range Specs() {
			names = append(names, sp.Name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	o := a.Run
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(o.OutDir, "aa-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	if o.Paracosm == "" { // build the server once for every run below
		if o.Paracosm, err = buildParacosm(tmp); err != nil {
			return false, err
		}
	}

	one := func(name string, seed int64) (*Result, error) {
		out := filepath.Join(tmp, "run.json")
		cmd := exec.Command(exe,
			"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.Seconds), "-scale", strconv.FormatFloat(o.Scale, 'g', -1, 64),
			"-paracosm", o.Paracosm, "-out", o.OutDir, "-json", out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %v\n%s", name, seed, err, msg)
		}
		rs, err := readResults(out)
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	var sets [2][]*Result
	for i := 0; i < a.Runs; i++ {
		for _, name := range names {
			for s := range sets {
				seed := a.Seed + int64(i) + int64(s)*1000
				r, err := one(name, seed)
				if err != nil {
					return false, err
				}
				sets[s] = append(sets[s], r)
				fmt.Fprintf(w, "# run %d/%d set %c %s seed %d done\n", i+1, a.Runs, 'A'+s, name, seed)
			}
		}
	}
	if a.JSONPrefix != "" {
		for s, suffix := range []string{"-a.json", "-b.json"} {
			b, err := json.MarshalIndent(sets[s], "", " ")
			if err != nil {
				return false, err
			}
			if err := os.WriteFile(a.JSONPrefix+suffix, b, 0o644); err != nil {
				return false, err
			}
		}
	}

	va, vb := byMetric(sets[0]), byMetric(sets[1])
	ok := true
	fmt.Fprintf(w, "\n%-17s %-22s %-34s %-34s %8s %8s %9s %6s  %s\n", "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "spreadA", "spreadB", "B worse", "bound", "")
	for _, name := range names {
		for _, m := range c.EndToEnd {
			xa, xb := va[name][m.Name], vb[name][m.Name]
			a1, a2, a3 := exclusiveQuartiles(xa)
			b1, b2, b3 := exclusiveQuartiles(xb)
			sa, sb, dis := spread(xa), spread(xb), worseBy(m.Better, a2, b2)
			verdict := "ok"
			switch {
			case math.Abs(dis) > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)):
				verdict, ok = "OUT OF BOUNDS", false
			case math.Abs(dis) > m.Bound/2:
				verdict = "over half the bound"
			}
			fmt.Fprintf(w, "%-17s %-22s %-34s %-34s %7.1f%% %7.1f%% %+8.1f%% %5.0f%%  %s\n", name, m.Name,
				fmt.Sprintf("%.5g / %.5g / %.5g", a1, a2, a3), fmt.Sprintf("%.5g / %.5g / %.5g", b1, b2, b3),
				100*sa, 100*sb, 100*dis, 100*m.Bound, verdict)
		}
	}
	for s := range sets {
		for _, r := range sets[s] {
			if !r.Correct() {
				ok = false
				fmt.Fprintf(w, "set %c %s seed %d: %d failed operations: %v\n", 'A'+s, r.Workload, r.Seed, r.Failed, r.Failures)
			}
		}
	}
	return ok, nil
}

func readResults(path string) ([]*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*Result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return rs, nil
}

// Compare reads two sets of runs (files written by -json) of an old and a
// new tree and prints a verdict for every pair of workload and end-to-end
// metric, every ratio with the median it is a ratio of:
//
//	unresolved    either set's spread is wider than the bound, so the
//	              pair can show neither a regression nor its absence
//	regressed     the new median is worse than the old by more than the bound
//	improved      the new median is better by more than the distance
//	              between the old runs' own quartiles
//	within bound  otherwise
//
// It reports whether any pair regressed.
func Compare(contractPath, oldPath, newPath string, w io.Writer) (bool, error) {
	c, err := LoadContract(contractPath)
	if err != nil {
		return false, err
	}
	olds, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	news, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	vo, vn := byMetric(olds), byMetric(news)
	regressed := false
	fmt.Fprintf(w, "%-17s %-22s %-13s %s\n", "workload", "metric", "verdict", "new / old")
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			xo, xn := vo[wl.Name][m.Name], vn[wl.Name][m.Name]
			if len(xo) == 0 || len(xn) == 0 {
				continue
			}
			o1, o2, o3 := exclusiveQuartiles(xo)
			_, n2, _ := exclusiveQuartiles(xn)
			dis := worseBy(m.Better, o2, n2)
			verdict := "within bound"
			switch {
			case spread(xo) > m.Bound || spread(xn) > m.Bound:
				verdict = "unresolved"
			case dis > m.Bound:
				verdict, regressed = "regressed", true
			case -dis*math.Abs(o2) > o3-o1:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-17s %-22s %-13s %.4g / %.4g %s = %.3f  (old quartiles %.4g–%.4g over %d runs, new spread %.1f%% over %d, bound %.0f%%)\n",
				wl.Name, m.Name, verdict, n2, o2, m.Unit, ratio(n2, o2), o1, o3, len(xo), 100*spread(xn), len(xn), 100*m.Bound)
		}
	}
	return regressed, nil
}
