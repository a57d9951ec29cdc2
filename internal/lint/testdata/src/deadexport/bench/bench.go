// Package bench stands for a nested module: it is never type-checked,
// only scanned for the names it selects.
package bench

import "paracosm/internal/lint/testdata/src/deadexport"

func run() int { return deadexport.BenchOnly() }
