package server

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/graph"
	"paracosm/internal/query"
)

func TestWireRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: TypeRegister, ID: 1, Query: "q1", Algo: "GraphFlow",
			Labels: []uint32{0, 1, 0}, Edges: [][3]uint32{{0, 1, 2}, {1, 2, 0}}},
		{Type: TypeBatch, ID: 2, Updates: []string{"+e 0 1 0", "-e 3 4", "+v 2", "-v 7"}},
		{Type: TypeDelta, Query: "q1", Update: "+e 0 1 0", Pos: 3, Neg: 1, Seq: 42, Dropped: 2},
		{Type: TypeOK, ID: 9, Accepted: 128},
		{Type: TypeError, ID: 10, Err: "unknown query"},
		{Type: TypeFlush, ID: 11},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(br, 0); err != io.EOF {
		t.Fatalf("at clean boundary: %v, want io.EOF", err)
	}
}

func TestReadFrameHostileInput(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"huge length prefix", "999999999999 {}\n"},
		{"over limit", "2000000 {}\n"},
		{"negative-ish prefix", "-5 {}\n"},
		{"letters in prefix", "12a {}\n"},
		{"no prefix", `{"type":"ok"}` + "\n"},
		{"truncated payload", "100 {\"type\":\"ok\"}"},
		{"missing newline", "13 {\"type\":\"ok\"}X"},
		{"length lies short", "2 {\"type\":\"ok\"}\n"},
		{"bad json", "3 {{{\n"},
		{"mid-prefix EOF", "12"},
		{"empty prefix then space", " {}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bufio.NewReader(strings.NewReader(tc.in)), DefaultMaxFrame)
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if err == io.EOF {
				t.Fatal("hostile input reported as clean EOF")
			}
		})
	}
}

func TestBuildQueryValidation(t *testing.T) {
	// Valid triangle round-trips through queryPayload.
	q, err := query.New([]graph.Label{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][3]query.VertexID{{0, 1}, {1, 2}, {0, 2}} {
		if err := q.AddEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	labels, edges := queryPayload(q)
	q2, err := buildQuery(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	if q2.NumVertices() != 3 || len(q2.Edges()) != 3 {
		t.Fatalf("round-trip lost structure: %d vertices, %d edges", q2.NumVertices(), len(q2.Edges()))
	}

	hostile := []struct {
		name   string
		labels []uint32
		edges  [][3]uint32
	}{
		{"no vertices", nil, nil},
		{"too many vertices", make([]uint32, 100), nil},
		{"edge endpoint out of range", []uint32{0, 1}, [][3]uint32{{0, 7, 0}}},
		{"huge endpoint", []uint32{0, 1}, [][3]uint32{{0, 1 << 30, 0}}},
		{"self loop", []uint32{0, 1}, [][3]uint32{{1, 1, 0}}},
		{"duplicate edge", []uint32{0, 1}, [][3]uint32{{0, 1, 0}, {1, 0, 0}}},
		{"disconnected", []uint32{0, 1, 2, 3}, [][3]uint32{{0, 1, 0}}},
	}
	for _, tc := range hostile {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := buildQuery(tc.labels, tc.edges); err == nil {
				t.Fatal("hostile query accepted")
			}
		})
	}
}

func TestEncodeDecodeUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := algotest.RandomGraph(rng, 20, 30, 2, 2)
	s := algotest.RandomStream(rng, g, 25, 0.6, 2)
	got, err := DecodeUpdates(EncodeUpdates(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round-trip mismatch:\n got %v\nwant %v", got, s)
	}

	for _, bad := range []string{"", "#comment", "+e 0", "+e 0 1 2\n+e 2 3 4", "?x 1 2", "+e a b c"} {
		if _, err := DecodeUpdates([]string{bad}); err == nil {
			t.Fatalf("bad update line %q accepted", bad)
		}
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes through the frame reader: any
// frame it accepts must re-encode and re-decode to itself, and the
// decoded fields must survive the query/update constructors without
// panicking (bounded by the small maxFrame, hostile lengths cannot
// balloon allocation).
func FuzzWireRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, &Frame{Type: TypeRegister, ID: 1, Query: "q", Algo: "GraphFlow",
		Labels: []uint32{0, 1}, Edges: [][3]uint32{{0, 1, 0}}})
	_ = WriteFrame(&seed, &Frame{Type: TypeBatch, ID: 2, Updates: []string{"+e 0 1 0", "-e 1 2"}})
	f.Add(seed.Bytes())
	f.Add([]byte("3 {}\njunk"))
	f.Add([]byte("999999999999 {}\n"))
	f.Add([]byte("13 {\"type\":\"ok\"}\n"))
	f.Add([]byte{0, 1, 2, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			fr, err := ReadFrame(br, 1<<16)
			if err != nil {
				return // rejection is fine; panics are not
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, fr); err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			fr2, err := ReadFrame(bufio.NewReader(&buf), 0)
			if err != nil {
				t.Fatalf("re-decode failed: %v (frame %+v)", err, fr)
			}
			if !reflect.DeepEqual(fr, fr2) {
				t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", fr2, fr)
			}
			// Hostile field contents must error, never panic.
			if q, err := buildQuery(fr.Labels, fr.Edges); err == nil && q == nil {
				t.Fatal("buildQuery returned nil, nil")
			}
			if s, err := DecodeUpdates(fr.Updates); err == nil && len(s) != len(fr.Updates) {
				t.Fatal("DecodeUpdates dropped lines without error")
			}
		}
	})
}
