package bench

import (
	"strings"
	"testing"
	"time"
)

func renderString(tb *table) string {
	var b strings.Builder
	tb.render(&b)
	return b.String()
}

func TestTableRender(t *testing.T) {
	tb := newTable("Table X: demo", "name", "value", "time")
	tb.addRow("alpha", 1.5, 3*time.Millisecond)
	tb.addRow("beta", 200.5, 12*time.Millisecond)
	out := renderString(tb)
	for _, want := range []string{"Table X: demo", "alpha", "beta", "1.500", "200.5", "3ms", "| name", "+--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableIntegerFloats(t *testing.T) {
	tb := newTable("", "v")
	tb.addRow(3.0)
	if out := renderString(tb); !strings.Contains(out, " 3 ") {
		t.Fatalf("integral float not compact: %s", out)
	}
}
