package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExtensionTablesGolden renders X2–X6 at Quick scale and compares
// them byte for byte with testdata/x2_x6_quick.golden. Every cell is a
// deterministic function of the seeded schedules (System.Step quiesces
// at each phase boundary), so any drift here is a behaviour change in
// churn, replay, membership, aggregation, sharing or adaptation. The
// golden holds each Result.String() followed by a blank line, which is
// benchrun -quick's output for these ids without its timing lines.
func TestExtensionTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range []string{"X2", "X3", "X4", "X5", "X6"} {
		r, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		res, err := r.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(res.String())
		b.WriteString("\n")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "x2_x6_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
