// Package server implements the streaming CSM service: a long-lived TCP
// front end over core.MultiEngine through which clients register named
// continuous queries, push ΔG update streams, and subscribe to per-query
// match-delta notifications — the operating model of production
// continuous-subgraph-matching deployments (Choudhury & Holder's
// large-scale continuous queries on streams; Mnemonic's streaming
// serving system), layered on the ParaCOSM executors.
//
// The wire protocol is length-prefixed NDJSON: every message in either
// direction is one Frame, serialized as
//
//	<decimal payload length> <JSON object>\n
//
// The explicit length prefix bounds hostile input (a reader never
// buffers more than its configured frame limit) while the
// one-object-per-line JSON body keeps captures greppable and the codec
// stdlib-only. Update payloads reuse the internal/stream text codec
// ("+e u v l", "-e u v", ...), so a wire capture's update lines are
// directly replayable through the batch CLI.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Protocol verbs (Frame.Type). Client→server requests carry an ID the
// server echoes in the matching "ok"/"error" reply; "delta" frames are
// server-initiated and unnumbered.
const (
	// TypeRegister registers a named continuous query: Query names it,
	// Algo picks the algorithm, Labels/Edges carry the query graph.
	TypeRegister = "register"
	// TypeDeregister drops a query registered by this connection.
	TypeDeregister = "deregister"
	// TypeUpdate pushes update lines into the ingestion path (one or
	// many; "batch" is an alias kept distinct for traffic legibility).
	TypeUpdate = "update"
	// TypeBatch is TypeUpdate for many lines at once.
	TypeBatch = "batch"
	// TypeSubscribe starts match-delta notifications for Query on this
	// connection.
	TypeSubscribe = "subscribe"
	// TypeFlush is a barrier: the "ok" reply is sent only after every
	// update enqueued before it has been processed and its deltas fanned
	// out, and after any deltas already queued to this connection.
	TypeFlush = "flush"
	// TypeOK acknowledges a request (ID echoes the request).
	TypeOK = "ok"
	// TypeError rejects a request (ID echoes the request, Err explains).
	TypeError = "error"
	// TypeDelta notifies one subscriber of one update's nonzero ΔM.
	TypeDelta = "delta"
)

// Frame is one protocol message in either direction. Fields are a union
// over the verbs; unused fields are omitted on the wire.
type Frame struct {
	Type string `json:"type"`
	// ID is the client-assigned request id, echoed in the reply.
	ID uint64 `json:"id,omitempty"`
	// Query is the query name (register/deregister/subscribe/delta).
	Query string `json:"query,omitempty"`
	// Algo is the algorithm name for register (see internal/algo).
	Algo string `json:"algo,omitempty"`
	// Labels are the query graph's per-vertex labels (register).
	Labels []uint32 `json:"labels,omitempty"`
	// Edges are the query graph's edges as (u, v, elabel) (register).
	Edges [][3]uint32 `json:"edges,omitempty"`
	// Updates carry stream-codec lines (update/batch).
	Updates []string `json:"updates,omitempty"`
	// Update is the stream-codec line of a delta's triggering update.
	Update string `json:"update,omitempty"`
	// Pos/Neg are the incremental match counts of a delta.
	Pos uint64 `json:"pos,omitempty"`
	Neg uint64 `json:"neg,omitempty"`
	// Seq is the query's produced-delta watermark (1-based): the count of
	// nonzero deltas the query has produced since it was registered,
	// delivered anywhere or not. Within one subscription the delivered
	// Seqs are strictly increasing, and a gap is exactly the number of
	// frames this subscriber missed — to queue overflow (see Dropped) or,
	// on a durable server, to a disconnect spanning a restart: the
	// watermark is persisted in snapshots and re-derived by log replay,
	// so it never regresses across a crash.
	Seq uint64 `json:"seq,omitempty"`
	// Dropped is the cumulative count of deltas this subscriber's queue
	// overflowed (drop-and-count, the obs.Ring convention).
	Dropped uint64 `json:"dropped,omitempty"`
	// Accepted is how many update lines an update/batch reply admitted
	// into the ingestion queue.
	Accepted int `json:"accepted,omitempty"`
	// Err is the failure reason of an error reply.
	Err string `json:"error,omitempty"`

	// enq is the fan-out enqueue time of a delta frame, stamped only when
	// the server has a tracer: the writer goroutine observes the frame's
	// subscriber-queue dwell and wire-write time from it (pipeline stages
	// sub_queue and wire_write). Unexported, so it never hits the wire.
	enq time.Time
}

// DefaultMaxFrame bounds a single wire frame (1 MiB): large enough for
// multi-thousand-update batches, small enough that a hostile length
// prefix cannot balloon reader memory.
const DefaultMaxFrame = 1 << 20

// WriteFrame serializes f as one length-prefixed NDJSON frame.
func WriteFrame(w io.Writer, f *Frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("server: marshal frame: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%d ", len(payload)); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err = w.Write([]byte{'\n'})
	return err
}

// ReadFrame reads one length-prefixed NDJSON frame, rejecting payloads
// over maxFrame bytes (DefaultMaxFrame when maxFrame <= 0) without
// buffering them. io.EOF is returned only at a clean frame boundary.
func ReadFrame(r *bufio.Reader, maxFrame int) (*Frame, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	n := 0
	digits := 0
	for {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && digits == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("server: frame length: %w", err)
		}
		if b == ' ' && digits > 0 {
			break
		}
		if b < '0' || b > '9' || digits >= 10 {
			return nil, fmt.Errorf("server: malformed frame length prefix")
		}
		n = n*10 + int(b-'0')
		digits++
		if n > maxFrame {
			return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, maxFrame)
		}
	}
	payload := make([]byte, n+1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("server: frame payload: %w", err)
	}
	if payload[n] != '\n' {
		return nil, fmt.Errorf("server: frame missing newline terminator")
	}
	var f Frame
	if err := json.Unmarshal(payload[:n], &f); err != nil {
		return nil, fmt.Errorf("server: frame json: %w", err)
	}
	return &f, nil
}

// queryPayload flattens q into the register frame's Labels/Edges fields.
func queryPayload(q *query.Graph) (labels []uint32, edges [][3]uint32) {
	labels = make([]uint32, q.NumVertices())
	for u := 0; u < q.NumVertices(); u++ {
		labels[u] = uint32(q.Label(query.VertexID(u)))
	}
	for _, e := range q.Edges() {
		edges = append(edges, [3]uint32{uint32(e.U), uint32(e.V), uint32(e.ELabel)})
	}
	return labels, edges
}

// buildQuery reconstructs a finalized query graph from a register
// frame's Labels/Edges payload. All structural validation (vertex count
// limit, edge endpoints, duplicate edges, connectivity) is delegated to
// the query package, so hostile payloads fail with an error, never a
// panic.
func buildQuery(labels []uint32, edges [][3]uint32) (*query.Graph, error) {
	ls := make([]graph.Label, len(labels))
	for i, l := range labels {
		ls[i] = graph.Label(l)
	}
	q, err := query.New(ls)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if e[0] >= uint32(len(labels)) || e[1] >= uint32(len(labels)) {
			return nil, fmt.Errorf("query: edge (%d,%d) out of range", e[0], e[1])
		}
		if err := q.AddEdge(query.VertexID(e[0]), query.VertexID(e[1]), graph.Label(e[2])); err != nil {
			return nil, err
		}
	}
	if err := q.Finalize(); err != nil {
		return nil, err
	}
	return q, nil
}

// EncodeUpdates renders s as stream-codec lines for an update frame.
func EncodeUpdates(s stream.Stream) []string {
	out := make([]string, len(s))
	for i, u := range s {
		out[i] = u.String()
	}
	return out
}

// DecodeUpdates parses update frame lines back into a stream. Every
// entry must be exactly one update (no comments, no embedded extra
// lines), so a frame round-trips to itself.
func DecodeUpdates(lines []string) (stream.Stream, error) {
	out := make(stream.Stream, 0, len(lines))
	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" || trimmed != ln || strings.ContainsRune(ln, '\n') {
			return nil, fmt.Errorf("update %d: %q is not exactly one update", i, ln)
		}
		u, err := stream.ParseUpdate(ln)
		if err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		out = append(out, u)
	}
	return out, nil
}
