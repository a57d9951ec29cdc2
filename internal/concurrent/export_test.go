package concurrent

// Counters returns the cumulative park and wakeup events of the pool's
// workers: a park is one transition into the idle wait between jobs
// (including the initial park after spawn and re-parks after spurious
// wakeups); wakeups count the matching transitions out.
func (c *crew) Counters() (parks, wakeups uint64) {
	return c.parks.Load(), c.wakeups.Load()
}

// Size returns the most goroutines that serve one job, its submitter
// included.
func (c *crew) Size() int { return c.size }
