package stream

// CountOps returns the number of updates per op kind.
func (s Stream) CountOps() map[Op]int {
	m := make(map[Op]int)
	for _, u := range s {
		m[u.Op]++
	}
	return m
}
