package algotest

import (
	"testing"

	"paracosm/internal/algo/algobase"
	"paracosm/internal/algo/incisomatch"
	"paracosm/internal/csm"
)

// TestLeafCounterIsOptIn is the promotion trap for csm.LeafCounter: the
// capability is declared by exactly the algorithms whose traversal is
// algobase.Base's own, and must not reach the others by embedding. CaLiG
// overrides Terminal and NewSP overrides Expand, both embed Base, and a
// CountLeaves promoted from it would have the engine count a level their own
// traversal treats differently. Giving Base the method fails this test.
func TestLeafCounterIsOptIn(t *testing.T) {
	declared := map[string]bool{"GraphFlow": true, "Symbi": true, "TurboFlux": true}
	algos := map[string]interface{}{
		"IncIsoMatch":    incisomatch.New(),
		"*algobase.Base": &algobase.Base{},
	}
	for _, f := range Factories() {
		algos[f.Name] = f.New()
	}
	for name, a := range algos {
		if _, ok := a.(csm.LeafCounter); ok != declared[name] {
			t.Errorf("%s: implements csm.LeafCounter = %v, want %v", name, ok, declared[name])
		}
	}
	for name := range declared {
		if _, ok := algos[name]; !ok {
			t.Errorf("%s is no longer among the factories; the trap covers nothing for it", name)
		}
	}
}
