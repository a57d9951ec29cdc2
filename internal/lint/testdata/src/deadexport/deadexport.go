// Package deadexport is the fixture of the deadexport analyzer. It is
// loaded under its module import path so the sibling caller package can
// import it; bench/ stands for the nested benchmarks module.
package deadexport

import "fmt"

// Used is called from the caller package.
func Used() int { return samePkg() + 1 }

// Dead has no caller anywhere.
func Dead() {} // want deadexport

// TestOnly is called only from this package's _test.go file, which the
// loader never reads.
func TestOnly() int { return 1 } // want deadexport

// SamePkg is called only inside this package: it should be unexported.
func SamePkg() int { return 2 } // want deadexport

func samePkg() int { return SamePkg() }

// BenchOnly is called only from bench/, a context package.
func BenchOnly() int { return 3 }

// Waived is a reference API kept for tests, waived in-source.
//
//lint:ignore deadexport reference API kept for the tests
func Waived() int { return 4 }

// Namer is an interface the package declares.
type Namer interface{ Name() string }

// T satisfies Namer and fmt.Stringer.
type T struct{}

// Name satisfies Namer, so a call through the interface reaches it.
func (T) Name() string { return "t" }

// String satisfies fmt.Stringer, whose method set the loaded code uses
// through fmt.Sprint's formatting of the value below.
func (T) String() string { return "T" }

// Reset is a method no interface declares and nothing calls.
func (*T) Reset() {} // want deadexport

func describe(n Namer) string { return n.Name() + fmt.Sprint(fmt.Stringer(T{})) }

var _ = describe
