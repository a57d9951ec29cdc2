package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Delta is one match-delta notification delivered to a subscriber.
type Delta struct {
	// Query names the continuous query the delta belongs to.
	Query string
	// Update is the triggering graph update.
	Update stream.Update
	// Pos/Neg are the incremental match counts (|ΔM⁺|, |ΔM⁻|).
	Pos, Neg uint64
	// Seq is the query's produced-delta watermark; Dropped is the
	// cumulative overflow count at enqueue time. Delivered Seqs are
	// strictly increasing per query, and a gap counts exactly the frames
	// this subscriber missed — whether to queue overflow or to a
	// disconnect spanning a server restart (the watermark survives
	// crashes via the WAL snapshot, so a resubscribing client can resume
	// its last Seq and detect every undelivered delta).
	Seq, Dropped uint64
}

// Client is a connection to a streaming CSM server. Request methods
// (Register, Send, Flush, ...) are safe for concurrent use; deltas for
// subscribed queries arrive on Deltas.
type Client struct {
	c        net.Conn
	maxFrame int

	wmu    sync.Mutex
	bw     *bufio.Writer // guarded by wmu — one in-flight request writer
	nextID uint64        // guarded by wmu

	mu      sync.Mutex
	pending map[uint64]chan *Frame // guarded by mu — request id → reply slot
	err     error                  // guarded by mu — first terminal read error

	deltas  chan Delta
	dropped atomic.Uint64 // deltas discarded on a full Deltas buffer
	quit    chan struct{} // closed by Close: unblocks waiters
	done    chan struct{} // closed by readLoop on exit
	once    sync.Once
}

// DialConfig tunes a client connection.
type DialConfig struct {
	// MaxFrame bounds one inbound frame (DefaultMaxFrame when 0).
	MaxFrame int
	// DeltaBuffer is the capacity of the Deltas channel (default 1024).
	// A subscriber that stops draining it loses deltas client-side
	// (drop-and-count, see Client.Dropped) rather than stalling the read
	// loop — the read loop also demultiplexes replies, so blocking it on
	// a full buffer would wedge every pending request.
	DeltaBuffer int
}

// Dial connects to a streaming CSM server at addr.
func Dial(addr string, cfg ...DialConfig) (*Client, error) {
	var dc DialConfig
	if len(cfg) > 0 {
		dc = cfg[0]
	}
	if dc.MaxFrame <= 0 {
		dc.MaxFrame = DefaultMaxFrame
	}
	if dc.DeltaBuffer <= 0 {
		dc.DeltaBuffer = 1024
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	cl := &Client{
		c:        c,
		maxFrame: dc.MaxFrame,
		bw:       bufio.NewWriter(c),
		pending:  make(map[uint64]chan *Frame),
		deltas:   make(chan Delta, dc.DeltaBuffer),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go cl.readLoop()
	return cl, nil
}

// readLoop demultiplexes inbound frames: replies resolve their pending
// request, deltas stream to the Deltas channel. It exits — closing
// Deltas and failing all pending requests — on the first read error.
func (c *Client) readLoop() {
	defer close(c.done)
	defer close(c.deltas)
	br := bufio.NewReader(c.c)
	for {
		f, err := ReadFrame(br, c.maxFrame)
		if err != nil {
			c.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		switch f.Type {
		case TypeDelta:
			upds, err := DecodeUpdates([]string{f.Update})
			if err != nil {
				c.fail(fmt.Errorf("client: bad delta update %q: %w", f.Update, err))
				return
			}
			d := Delta{
				Query:   f.Query,
				Update:  upds[0],
				Pos:     f.Pos,
				Neg:     f.Neg,
				Seq:     f.Seq,
				Dropped: f.Dropped,
			}
			select { // drop-counted by dropped
			case c.deltas <- d:
			default:
				// Drop-and-count, never block: this loop also resolves
				// pending replies, so parking on a full Deltas buffer
				// would wedge every outstanding request (Flush would
				// deadlock against the very deltas it waits on).
				c.dropped.Add(1)
			}
		default:
			c.mu.Lock()
			ch := c.pending[f.ID]
			delete(c.pending, f.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- f // cap-1 buffered: never blocks
			}
		}
	}
}

// fail records the first terminal error and releases every pending
// request by closing its reply slot.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pend := c.pending
	c.pending = make(map[uint64]chan *Frame)
	c.mu.Unlock()
	//lint:ignore lockescape pend was swapped out of c.pending under the lock; this loop holds the sole reference
	for _, ch := range pend {
		close(ch)
	}
}

func (c *Client) readErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errors.New("client: connection lost")
}

// rpc sends one request frame and waits for its reply. An error-typed
// reply is returned as (reply, error) so callers can inspect partial
// results (e.g. the accepted count of a rejected batch).
func (c *Client) rpc(f *Frame) (*Frame, error) {
	ch := make(chan *Frame, 1)
	c.wmu.Lock()
	c.nextID++
	id := c.nextID
	f.ID = id
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.wmu.Unlock()
		return nil, err
	}
	c.pending[id] = ch
	c.mu.Unlock()
	err := WriteFrame(c.bw, f)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("client: write: %w", err)
	}
	select {
	case r, ok := <-ch:
		if !ok {
			return nil, c.readErr()
		}
		if r.Type == TypeError {
			return r, fmt.Errorf("server: %s", r.Err)
		}
		return r, nil
	case <-c.quit:
		return nil, errors.New("client: closed")
	}
}

// Register registers q under name with the given algorithm (see
// internal/algo for names). The query is owned by this connection and is
// deregistered automatically when the connection closes.
func (c *Client) Register(name, algorithm string, q *query.Graph) error {
	labels, edges := queryPayload(q)
	_, err := c.rpc(&Frame{Type: TypeRegister, Query: name, Algo: algorithm, Labels: labels, Edges: edges})
	return err
}

// Subscribe starts match-delta notifications for name on this
// connection; they arrive on Deltas.
func (c *Client) Subscribe(name string) error {
	_, err := c.rpc(&Frame{Type: TypeSubscribe, Query: name})
	return err
}

// Send pushes a batch of updates into the server's ingestion queue,
// returning how many were admitted. Under the server's reject
// backpressure policy accepted may be short of len(s), with a non-nil
// "busy" error describing the refusal.
func (c *Client) Send(s stream.Stream) (accepted int, err error) {
	r, err := c.rpc(&Frame{Type: TypeBatch, Updates: EncodeUpdates(s)})
	if r != nil {
		accepted = r.Accepted
	}
	return accepted, err
}

// Flush blocks until every update this client enqueued before the call
// has been processed and its deltas delivered to this connection's
// queue. Because replies and deltas share one FIFO per connection, all
// deltas for those updates are in the Deltas buffer when Flush returns
// — or counted as dropped, server-side on Delta.Dropped, client-side
// on Dropped.
func (c *Client) Flush() error {
	_, err := c.rpc(&Frame{Type: TypeFlush})
	return err
}

// Deltas returns the match-delta stream for this connection's
// subscriptions. The channel is closed when the connection dies or the
// client is closed. Consumers must drain it promptly; see
// DialConfig.DeltaBuffer.
func (c *Client) Deltas() <-chan Delta { return c.deltas }

// Dropped reports the number of deltas discarded client-side because
// the Deltas buffer was full when they arrived. Server-side queue
// overflow is reported separately, on each delivered Delta's Dropped
// field.
func (c *Client) Dropped() uint64 { return c.dropped.Load() }

// Close tears the connection down and joins the read loop. Queries
// registered by this connection are deregistered server-side.
func (c *Client) Close() error {
	c.once.Do(func() {
		close(c.quit)
		c.c.Close()
	})
	<-c.done
	return nil
}
