package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: p2pm
BenchmarkXMLParse-8           100        52000 ns/op      12000 B/op      150 allocs/op
BenchmarkXMLParse-8           100        50000 ns/op      12000 B/op      150 allocs/op
BenchmarkXMLParse-8           100        51000 ns/op      12000 B/op      150 allocs/op
BenchmarkJoinIndexed-8        100         8000 ns/op
BenchmarkJoinIndexed-8        100         7500 ns/op
BenchmarkGroupAccept-8        100          100 ns/op
BenchmarkXPathEval-8          100          400 ns/op
PASS
ok      p2pm    1.234s
`

func writeInput(t *testing.T, dir, content string) string {
	t.Helper()
	path := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchTakesMinAcrossCounts(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Benchmarks["BenchmarkXMLParse"]; got != 50000 {
		t.Errorf("XMLParse min = %v, want 50000 (GOMAXPROCS suffix stripped, min of counts)", got)
	}
	if got := snap.Benchmarks["BenchmarkJoinIndexed"]; got != 7500 {
		t.Errorf("JoinIndexed min = %v, want 7500", got)
	}
}

func TestUpdateThenCleanPass(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, sampleBench)
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-in", in, "-baseline", base, "-update"}, &out, &errb); code != 0 {
		t.Fatalf("update exit = %d (%s)", code, errb.String())
	}
	out.Reset()
	if code := run([]string{"-in", in, "-baseline", base}, &out, &errb); code != 0 {
		t.Fatalf("identical run flagged: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "no regression") {
		t.Errorf("missing pass summary:\n%s", out.String())
	}
}

func TestRegressionFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, sampleBench)
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-in", in, "-baseline", base, "-update"}, &out, &errb); code != 0 {
		t.Fatal("baseline write failed")
	}
	// One benchmark slows 60% while the pack holds still: a real
	// hot-path regression, beyond the 25% gate even after the median
	// shift (≈1.0) is divided out.
	slow := strings.ReplaceAll(strings.ReplaceAll(sampleBench,
		"7500 ns/op", "12000 ns/op"), "8000 ns/op", "12500 ns/op")
	in2 := writeInput(t, t.TempDir(), slow)
	out.Reset()
	code := run([]string{"-in", in2, "-baseline", base}, &out, &errb)
	if code != 1 {
		t.Fatalf("regression exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED BenchmarkJoinIndexed") {
		t.Errorf("regression not named:\n%s", out.String())
	}
	// A generous threshold lets the same run pass.
	out.Reset()
	if code := run([]string{"-in", in2, "-baseline", base, "-threshold", "0.8"}, &out, &errb); code != 0 {
		t.Errorf("exit = %d with -threshold 0.8, want 0", code)
	}
}

// TestUniformShiftIsMachineSpeedNotRegression: every benchmark exactly
// 2× slower is a slower machine (a different CI runner class), not a
// code regression — the median normalization absorbs it. With
// -no-normalize the same input fails, which is the intended absolute
// mode for identical hardware.
func TestUniformShiftIsMachineSpeedNotRegression(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, sampleBench)
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-in", in, "-baseline", base, "-update"}, &out, &errb); code != 0 {
		t.Fatal("baseline write failed")
	}
	doubled := `BenchmarkXMLParse-8    100  100000 ns/op
BenchmarkJoinIndexed-8  100  15000 ns/op
BenchmarkGroupAccept-8  100  200 ns/op
BenchmarkXPathEval-8    100  800 ns/op
`
	in2 := writeInput(t, t.TempDir(), doubled)
	out.Reset()
	if code := run([]string{"-in", in2, "-baseline", base}, &out, &errb); code != 0 {
		t.Fatalf("uniform 2x shift failed the normalized gate: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "machine-speed factor ×2.00") {
		t.Errorf("machine factor not reported:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-in", in2, "-baseline", base, "-no-normalize"}, &out, &errb); code != 1 {
		t.Errorf("-no-normalize exit = %d, want 1 (absolute mode must see the 2x)", code)
	}
}

func TestMissingAndNewBenchmarksDoNotFail(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, sampleBench)
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-in", in, "-baseline", base, "-update"}, &out, &errb); code != 0 {
		t.Fatal("baseline write failed")
	}
	subset := `BenchmarkXMLParse-8  100  50000 ns/op
BenchmarkBrandNew-8  100  10 ns/op
`
	in2 := writeInput(t, t.TempDir(), subset)
	out.Reset()
	if code := run([]string{"-in", in2, "-baseline", base}, &out, &errb); code != 0 {
		t.Fatalf("subset run failed the gate: %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip") || !strings.Contains(out.String(), "new") {
		t.Errorf("missing/new benchmarks not reported:\n%s", out.String())
	}
}

func TestSnapshotOutputWritten(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, sampleBench)
	base := filepath.Join(dir, "base.json")
	outJSON := filepath.Join(dir, "BENCH_pr3.json")
	var out, errb bytes.Buffer
	run([]string{"-in", in, "-baseline", base, "-update", "-out", outJSON}, &out, &errb)
	snap, err := readSnapshot(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 4 {
		t.Errorf("snapshot holds %d benchmarks, want 4", len(snap.Benchmarks))
	}
}

func TestNoInputIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-in", "/nonexistent"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	empty := writeInput(t, t.TempDir(), "PASS\n")
	if code := run([]string{"-in", empty}, &out, &errb); code != 2 {
		t.Errorf("empty input exit = %d, want 2", code)
	}
}

// TestSmallSharedSetFallsBackToAbsolute: with fewer than 3 shared
// benchmarks the median IS the sample, so normalization would launder
// any regression — the gate must fall back to absolute comparison.
func TestSmallSharedSetFallsBackToAbsolute(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	one := writeInput(t, dir, "BenchmarkXMLParse-8  100  50000 ns/op\n")
	if code := run([]string{"-in", one, "-baseline", base, "-update"}, &out, &errb); code != 0 {
		t.Fatal("baseline write failed")
	}
	slow := writeInput(t, t.TempDir(), "BenchmarkXMLParse-8  100  500000 ns/op\n")
	out.Reset()
	if code := run([]string{"-in", slow, "-baseline", base}, &out, &errb); code != 1 {
		t.Fatalf("10x slowdown on the only shared benchmark passed: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "comparing absolute") {
		t.Errorf("fallback not announced:\n%s", out.String())
	}
}

// TestZeroOverlapFailsTheGate: a run sharing no benchmark with the
// baseline compared nothing — renamed benchmarks or a drifted regex
// must not produce a green check.
func TestZeroOverlapFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, sampleBench)
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-in", in, "-baseline", base, "-update"}, &out, &errb); code != 0 {
		t.Fatal("baseline write failed")
	}
	other := writeInput(t, t.TempDir(), "BenchmarkRenamed-8  100  50000 ns/op\n")
	out.Reset()
	if code := run([]string{"-in", other, "-baseline", base}, &out, &errb); code != 2 {
		t.Fatalf("zero-overlap run exit = %d, want 2\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "guarded nothing") {
		t.Errorf("zero overlap not named:\n%s", errb.String())
	}
}

func TestAllocsRecordedAsMaxAcrossCounts(t *testing.T) {
	in := sampleBench + "BenchmarkXMLParse-8           100        50000 ns/op      12000 B/op      151 allocs/op\n"
	snap, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Allocs["BenchmarkXMLParse"]; got != 151 {
		t.Errorf("XMLParse allocs = %v, want 151 (max of counts)", got)
	}
	if _, ok := snap.Allocs["BenchmarkJoinIndexed"]; ok {
		t.Error("allocs recorded for a line without -benchmem fields")
	}
}

func TestZeroAllocBaselineMustNotAllocate(t *testing.T) {
	zero := sampleBench + "BenchmarkTelemetryCounter-8  1000000   2.5 ns/op   0 B/op   0 allocs/op\n"
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-in", writeInput(t, dir, zero), "-baseline", base, "-update"}, &out, &errb); code != 0 {
		t.Fatal("baseline write failed")
	}
	// Same speed, one allocation per op: a broken contract, not noise.
	allocating := strings.Replace(zero, "0 B/op   0 allocs/op", "16 B/op   1 allocs/op", 1)
	out.Reset()
	code := run([]string{"-in", writeInput(t, t.TempDir(), allocating), "-baseline", base}, &out, &errb)
	if code != 1 {
		t.Fatalf("allocating zero-alloc benchmark passed: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ALLOCATES") || !strings.Contains(out.String(), "BenchmarkTelemetryCounter") {
		t.Errorf("report does not name the allocating benchmark:\n%s", out.String())
	}
	// Without -benchmem the check is skipped, not failed.
	out.Reset()
	plain := strings.Replace(zero, "   0 B/op   0 allocs/op", "", 1)
	if code := run([]string{"-in", writeInput(t, t.TempDir(), plain), "-baseline", base}, &out, &errb); code != 0 {
		t.Fatalf("run without -benchmem failed the zero-alloc check: exit %d\n%s", code, out.String())
	}
}
