package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSummarizeReportsHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		med     float64
		tailP   float64
		tailVal float64
	}{
		{n: 5, med: 3, tailP: 50, tailVal: 3},        // too few for any tail
		{n: 19, med: 10, tailP: 50, tailVal: 10},     // p90 would leave 1 beyond
		{n: 100, med: 50, tailP: 90, tailVal: 90},    // 10 beyond p90, 1 beyond p99
		{n: 1000, med: 500, tailP: 99, tailVal: 990}, // 10 beyond p99
		{n: 5000, med: 2500, tailP: 99, tailVal: 4950},
	} {
		med, tail := summarize(seq(c.n))
		if med.P != 50 || med.Value != c.med || med.N != c.n {
			t.Errorf("n=%d: median %+v, want p50=%v", c.n, med, c.med)
		}
		if tail.P != c.tailP || tail.Value != c.tailVal || tail.N != c.n {
			t.Errorf("n=%d: tail %+v, want p%v=%v", c.n, tail, c.tailP, c.tailVal)
		}
	}
	if med, tail := summarize(nil); med.N != 0 || tail.Value != 0 {
		t.Errorf("empty: %+v %+v", med, tail)
	}
}

func TestBestCountsFromTheBetterEnd(t *testing.T) {
	var sets []metrics
	for _, v := range []float64{5, 9, 1, 7, 3, 8, 2, 6, 4} {
		sets = append(sets, metrics{
			{Name: "events_per_s", Value: v},
			{Name: "deliver_p50_us", Value: v, P: 50, N: 10},
		})
	}
	got := best(sets)
	if got[0].Value != 9 || got[1].Value != 1 || got[1].N != 90 {
		t.Errorf("got %+v, want events_per_s 9 (highest) and deliver_p50_us 1 (lowest, n=90)", got)
	}
}

// runQuick runs the command in-process and returns its output lines
// and the decoded result line.
func runQuick(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d\n%s\n%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v\n%s", args, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%v: result %+v\n%s", args, res, out.String())
	}
	if !strings.Contains(out.String(), "check reference=pass") {
		t.Errorf("%v: no passing reference check\n%s", args, out.String())
	}
	return lines, res
}

func TestQuickRunPrintsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			lines, res := runQuick(t, "--workload", w.name, "--seed", "7", "--seconds", "0.5", "--trace", "0")
			for _, e := range endToEnd {
				m, ok := res.Metrics[e.name]
				if !ok || m.Unit != e.unit || m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("result metric %s = %+v, want a positive value in %s", e.name, m, e.unit)
				}
				prefix := "metric " + e.name + " "
				found := false
				for _, l := range lines {
					if strings.HasPrefix(l, prefix) && strings.Contains(l, " "+e.unit) {
						found = true
					}
				}
				if !found {
					t.Errorf("no %q line with unit %s", prefix, e.unit)
				}
			}
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, res := runQuick(t, "--workload", w.name, "--seed", "3", "--seconds", "0.6", "--trace", "1", "--trace-dir", dir)
			var cpu float64
			for _, pl := range perLayer {
				m, ok := res.Metrics[pl.name]
				if !ok || m.Unit != pl.unit {
					t.Errorf("layer metric %s = %+v, want unit %s", pl.name, m, pl.unit)
				}
				if strings.HasPrefix(pl.name, "cpu.") {
					cpu += m.Value
				}
			}
			if math.Abs(cpu-1) > 1e-6 {
				t.Errorf("cpu shares sum to %v, want 1", cpu)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestAggDrivesPastStallLimit drives agg-256 for longer than the stall
// guard's limit: the driving loop must count as progress, or the guard
// closes the result queue and the records flushed at Task.Stop are lost.
func TestAggDrivesPastStallLimit(t *testing.T) {
	defer func(d time.Duration) { stallLimit = d }(stallLimit)
	stallLimit = time.Second
	b, err := setupAgg(setupConfig{seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	rep, err := b.run(3 * stallLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.wall <= stallLimit || rep.expected == 0 || rep.failed() != 0 || len(rep.problems) != 0 {
		t.Errorf("wall %v, expected %d, failed %d, problems %q", rep.wall, rep.expected, rep.failed(), rep.problems)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "alerts", "--seconds", "0"},
		{"--workload", "alerts", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// lists the command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the code", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != endToEnd[i].better {
			t.Errorf("end-to-end %d: %+v, code has %+v", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %+v, code has %+v", i, m, perLayer[i])
		}
	}
}
