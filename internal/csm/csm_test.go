package csm

import (
	"testing"
	"testing/quick"

	"paracosm/internal/graph"
	"paracosm/internal/query"
)

func TestNewStateEmpty(t *testing.T) {
	s := NewState(5)
	if s.Depth != 0 || s.Order != 5 {
		t.Fatalf("NewState = %+v", s)
	}
	for u := 0; u < query.MaxVertices; u++ {
		if s.Map[u] != graph.NoVertex {
			t.Fatalf("Map[%d] = %d, want NoVertex", u, s.Map[u])
		}
	}
}

func TestStateSetUnsetUses(t *testing.T) {
	s := NewState(0)
	s.Set(3, 42)
	if s.Depth != 1 || s.Matched(3) != 42 || !s.Uses(42) || s.Uses(41) {
		t.Fatalf("after Set: %+v", s)
	}
	s.Unset(3)
	if s.Depth != 0 || s.Matched(3) != graph.NoVertex || s.Uses(42) {
		t.Fatalf("after Unset: %+v", s)
	}
}

func TestStateSetTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double Set")
		}
	}()
	s := NewState(0)
	s.Set(0, 1)
	s.Set(0, 2)
}

func TestStateUnsetUnmatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Unset of unmatched")
		}
	}()
	s := NewState(0)
	s.Unset(0)
}

func TestOrderEncodingRoundTrip(t *testing.T) {
	f := func(idx uint8, flipped bool) bool {
		eo := query.EdgeOrientation{Index: int(idx), Flipped: flipped}
		return DecodeOrder(EncodeOrder(eo)) == eo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
