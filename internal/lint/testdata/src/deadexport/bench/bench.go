// Package bench stands for the nested benchmarks module. The test passes
// it as context only: its call keeps deadexport.BenchOnly alive, and its
// own dead export is not reported.
package bench

import "paracosm/internal/lint/testdata/src/deadexport"

func run() int { return deadexport.BenchOnly() }

// Unreported has no caller, but bench is not reported on.
func Unreported() {}
