package paracosm_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarksModuleVets type-checks the repository benchmark against
// the tree it sits in. benchmarks/ is a module of its own, so `go build
// ./...` and `go vet ./...` at the root never compile it — yet it is the
// code every performance change is judged by, and it calls internal/core,
// concurrent, graph, server, stream and wal directly. This is the drift
// guard: a signature the harness uses cannot change without tier-1
// noticing. (The module's own 15 s smoke test stays opt-in: `cd benchmarks
// && go test ./...`.)
func TestBenchmarksModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH (%v); cannot vet the benchmarks module", err)
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmarks"
	// The module needs nothing from the network; never reach for it.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmarks/: %v\n%s", err, out)
	}
}
