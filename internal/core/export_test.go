package core

// Options and accessors only the tests use.

// WithOnDelta attaches a match-delta callback (nil detaches).
func WithOnDelta(f DeltaFunc) Option { return func(c *Config) { c.OnDelta = f } }

// ResetStats zeroes accumulated instrumentation.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	e.stats = Stats{}
	e.statsMu.Unlock()
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
