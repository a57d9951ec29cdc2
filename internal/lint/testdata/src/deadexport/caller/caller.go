// Package caller imports the fixture from non-test code.
package caller

import "paracosm/internal/lint/testdata/src/deadexport"

func use() int { return deadexport.Used() }

var _ = use
