package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func mkEvent(seq uint64) Event {
	return Event{Seq: seq, Op: "+e", U: uint32(seq), V: uint32(seq + 1), Class: ClassDirect, Total: time.Duration(seq) * time.Microsecond}
}

func TestRingOverwriteAndDrops(t *testing.T) {
	r := newRing(4)
	if r.Cap() != 4 || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("fresh ring state wrong")
	}
	for i := uint64(1); i <= 3; i++ {
		r.push(mkEvent(i))
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 3/0", r.Len(), r.Dropped())
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0].Seq != 1 || got[2].Seq != 3 {
		t.Fatalf("snapshot = %+v", got)
	}
	for i := uint64(4); i <= 10; i++ {
		r.push(mkEvent(i))
	}
	if r.Len() != 4 || r.Dropped() != 6 || r.Total() != 10 {
		t.Fatalf("len=%d dropped=%d total=%d, want 4/6/10", r.Len(), r.Dropped(), r.Total())
	}
	got = r.Snapshot()
	want := []uint64{7, 8, 9, 10}
	for i, w := range want {
		if got[i].Seq != w {
			t.Fatalf("snapshot seqs = %v..., want %v (oldest first)", got[i].Seq, want)
		}
	}
}

func TestRingClampsCapacity(t *testing.T) {
	r := newRing(0)
	r.push(mkEvent(1))
	r.push(mkEvent(2))
	if r.Cap() != 1 || r.Len() != 1 || r.Snapshot()[0].Seq != 2 {
		t.Fatalf("cap=%d len=%d", r.Cap(), r.Len())
	}
}

func TestRingJSONLRoundTrip(t *testing.T) {
	r := newRing(8)
	evs := []Event{
		{Seq: 1, Op: "+e", U: 5, V: 9, Class: ClassUnsafe, Escalated: true, Nodes: 1234, Resplits: 3, Matches: 7, ADS: time.Microsecond, Find: 2 * time.Millisecond, Total: 3 * time.Millisecond},
		{Seq: 2, Op: "-v", U: 11, Class: ClassVertex, Total: 40 * time.Nanosecond},
		{Seq: 3, Op: "-e", U: 1, V: 2, Class: ClassSafeDegree, Timeout: true},
	}
	for _, ev := range evs {
		r.push(ev)
	}
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(sb.String()), "\n") + 1; n != 3 {
		t.Fatalf("JSONL lines = %d, want 3", n)
	}
	back, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatalf("round trip length %d, want %d", len(back), len(evs))
	}
	for i := range evs {
		if back[i] != evs[i] {
			t.Errorf("event %d round trip mismatch:\n got %+v\nwant %+v", i, back[i], evs[i])
		}
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("expected error on malformed line")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := newRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				r.Dropped()
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.push(mkEvent(uint64(w*5000 + i)))
			}
		}(w)
	}
	// Writers finish, then stop the reader: join writers via a second
	// WaitGroup-free trick is overkill — just wait on total.
	for r.Total() < 20000 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if r.Total() != 20000 || r.Dropped() != 20000-64 {
		t.Fatalf("total=%d dropped=%d", r.Total(), r.Dropped())
	}
}
