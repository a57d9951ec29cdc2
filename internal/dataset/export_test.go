package dataset

import "paracosm/internal/stream"

// HoldoutFraction sets the fraction of edges diverted to the insertion
// stream (default 0.1, as in the paper's methodology).
func HoldoutFraction(f float64) Option { return func(c *config) { c.holdout = f } }

// All returns the four evaluation datasets in paper order.
func All(opts ...Option) []*Dataset {
	return []*Dataset{AmazonLike(opts...), LiveJournalLike(opts...), LSBenchLike(opts...), OrkutLike(opts...)}
}

// MixedStream returns a stream derived from d.Stream where, after every
// insertion has been emitted, a fraction delFrac of the inserted edges are
// deleted again (in random order). It models the expired-edge workloads of
// sliding-window CSM.
func (d *Dataset) MixedStream(delFrac float64) stream.Stream {
	out := append(stream.Stream(nil), d.Stream...)
	nDel := int(float64(len(d.Stream)) * delFrac)
	idx := d.rng.Perm(len(d.Stream))
	for i := 0; i < nDel && i < len(idx); i++ {
		ins := d.Stream[idx[i]]
		del, err := ins.Invert()
		if err == nil {
			out = append(out, del)
		}
	}
	return out
}
