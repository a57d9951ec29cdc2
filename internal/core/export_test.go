package core

import "paracosm/internal/obs"

// Options and accessors only the tests use.

// WithOnDelta attaches a match-delta callback (nil detaches).
func WithOnDelta(f DeltaFunc) Option { return func(c *Config) { c.OnDelta = f } }

// ResetStats zeroes accumulated instrumentation.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	e.stats = Stats{}
	e.statsMu.Unlock()
}

// WindowCounters returns the driver-level Window(n) counters: one tally
// per shared-graph window, counted once per update rather than per query.
// Zero-valued unless Config.Window > 1.
func (m *MultiEngine) WindowCounters() WindowCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.winStats
}

// ClosedLatency returns a copy of the merged per-update latency histogram
// of every deregistered tracked query (the latency counterpart of
// ClosedStats), or nil when no tracked query has deregistered.
func (m *MultiEngine) ClosedLatency() *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closedLat == nil {
		return nil
	}
	h := obs.NewHistogram()
	h.Merge(m.closedLat)
	return h
}

// QueryNames returns the live query names in registration order.
func (m *MultiEngine) QueryNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.queries))
	for i, mq := range m.queries {
		out[i] = mq.name
	}
	return out
}
