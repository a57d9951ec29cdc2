package csm_test

import (
	"testing"

	"paracosm/internal/csm"
)

// rebuildAlgo implements Rebuilder for interface-shape verification.
type rebuildAlgo struct {
	pathAlgo
	consistent bool
}

func (r *rebuildAlgo) RebuildADS() bool { return r.consistent }

func TestRebuilderInterface(t *testing.T) {
	var a csm.Algorithm = &rebuildAlgo{consistent: true}
	reb, ok := a.(csm.Rebuilder)
	if !ok {
		t.Fatal("rebuildAlgo does not satisfy Rebuilder")
	}
	if !reb.RebuildADS() {
		t.Fatal("RebuildADS = false")
	}
	// Plain pathAlgo must NOT satisfy Rebuilder (it has no ADS).
	var b csm.Algorithm = &pathAlgo{}
	if _, ok := b.(csm.Rebuilder); ok {
		t.Fatal("pathAlgo unexpectedly satisfies Rebuilder")
	}
}
