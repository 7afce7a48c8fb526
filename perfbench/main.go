// Command perfbench is the end-to-end benchmark of the P2PM monitor. It
// drives one named workload from a single goroutine for a fixed wall
// time, checks every result against a reference computed from the seed,
// and prints the metrics a subscriber would see. With --trace 1 it runs
// the workload twice — once plain, once with the telemetry registry,
// driver-side spans and a CPU profile on — and prints per-layer metrics
// instead. See README.md in this directory.
//
//	perfbench --workload alerts --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"p2pm/internal/telemetry"
)

// setupConfig is what a workload's setup receives.
type setupConfig struct {
	seed int64
	// reg, when non-nil, is the benchmark-owned registry the System
	// reports to (traced run only).
	reg *telemetry.Registry
	// tr records driver-side spans; nil in untraced runs.
	tr *tracer
}

// bench is one set-up workload, ready to drive.
type bench interface {
	// run drives the workload for at least one round and until d has
	// passed, then checks the results against the reference.
	run(d time.Duration) (*report, error)
	// close stops everything the set-up started.
	close()
}

// workload names one benchmark input shape.
type workload struct {
	name  string
	why   string
	setup func(setupConfig) (bench, error)
	// subRuns is how many fresh set-ups an untraced run drives in turn.
	subRuns int
}

var workloads = []workload{
	{"alerts", "the paper's core path: ws-in alerters, filters, shared channels and subscriber delivery, little control-plane work", setupAlerts, 27},
	{"agg-256", "the control plane at scale: gossip over ~270 peers, checkpoints, and a degree-4 aggregation tree folding every event", setupAgg, 27},
	{"churn", "failover under crashes, graceful leaves and joins: detection, migration, DHT handoff, checkpoint restore and replay", setupChurn, 27},
	{"net-loopback", "the only path over wire and TCP: windowed HyperLogLog partials between two transport nodes on 127.0.0.1", setupNet, 45},
}

// endToEnd is the result-line metric set of an untraced run, in order,
// with the direction in which each is better.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"deliver_p50_us", "us", "lower"},
	{"deliver_p99_us", "us", "lower"},
	{"allocs_per_event", "count", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: alerts, agg-256, churn or net-loopback")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs and the simulation")
	seconds := fs.Float64("seconds", 10, "wall time the measured phase runs")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build", "directory for the traced run's span file, trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	// One processor: on a small shared host, wakeups across CPUs made
	// the same run's figures drift by a quarter from minute to minute.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %d gomaxprocs %d\n", w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "why %s\n", w.why)
	var res *result
	var err error
	if *trace == 0 {
		res, err = untracedRun(out, w, *seed, d)
	} else {
		res, err = tracedRun(out, w, *seed, d, filepath.Join(*traceDir, "trace-"+w.name+".jsonl"))
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupOnce times one set-up. It starts from a collected heap, so the
// garbage a previous set-up or sub-run left does not land on its clock.
func setupOnce(w *workload, cfg setupConfig) (bench, float64, error) {
	runtime.GC()
	t0 := time.Now()
	b, err := w.setup(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return b, time.Since(t0).Seconds(), nil
}

// A run warms the process up on one set-up, then drives the workload's
// subRuns fresh set-ups in turn and reports, for each metric, its best
// value across them. The shared host slows the program in phases of
// seconds to a minute, and it only ever slows it: a run's median or
// quartile reports how much of that run fell into slow phases, while its
// best sub-run reports the program on an undisturbed stretch, and a
// change to the program moves every sub-run and so moves the best one
// too. After the warm-up and after each sub-run, bare set-ups are
// repeated until that gap has taken its share of setupBudget (at most
// setupMax in all), so a short set-up still gives a steady setup_s
// median, drawn from the whole run rather than from one moment of it.
const (
	warmShare   = 10 // the warm-up gets 1/warmShare of the run
	setupBudget = time.Second
	setupMax    = 200
)

// driveOnce sets the workload up, drives it for d and closes it,
// returning the run's report and the set-up time.
func driveOnce(w *workload, cfg setupConfig, d time.Duration) (*report, float64, error) {
	b, s, err := setupOnce(w, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer b.close()
	runtime.GC()
	rep, err := b.run(d)
	return rep, s, err
}

// untracedRun drives the workload for d in sub-runs and prints the
// end-to-end metrics.
func untracedRun(out *bufio.Writer, w *workload, seed int64, d time.Duration) (*result, error) {
	var setupTimes []float64
	drive := func(d time.Duration) (*report, error) {
		rep, s, err := driveOnce(w, setupConfig{seed: seed}, d)
		setupTimes = append(setupTimes, s)
		return rep, err
	}
	// extraSetups fills one gap between sub-runs with bare set-ups.
	extraSetups := func() error {
		gap := time.Duration(0)
		for n := 0; n < setupMax/(w.subRuns+1) && gap < setupBudget/time.Duration(w.subRuns+1); n++ {
			b, s, err := setupOnce(w, setupConfig{seed: seed})
			if err != nil {
				return err
			}
			b.close()
			setupTimes = append(setupTimes, s)
			gap += time.Duration(s * float64(time.Second))
		}
		return nil
	}
	warm, err := drive(d / warmShare)
	if err != nil {
		return nil, err
	}
	// The warm-up's results are checked like the rest; only its timings
	// are left out.
	warm.deliver, warm.deliverVirt = nil, nil
	if err := extraSetups(); err != nil {
		return nil, err
	}
	reps := []*report{warm}
	each := (d - d/warmShare) / time.Duration(w.subRuns)
	var all, extras []metrics
	for i := 0; i < w.subRuns; i++ {
		rep, err := drive(each)
		if err != nil {
			return nil, err
		}
		ms := endToEndMetrics(rep)
		// The samples are summarized; drop them before the next sub-run
		// samples its live heap.
		rep.deliver, rep.deliverVirt = nil, nil
		fmt.Fprintf(out, "subrun %d", i)
		for _, m := range ms {
			fmt.Fprintf(out, " %s=%.6g", m.Name, m.Value)
		}
		fmt.Fprintln(out)
		reps = append(reps, rep)
		all = append(all, ms)
		extras = append(extras, rep.extra)
		if err := extraSetups(); err != nil {
			return nil, err
		}
	}
	setupMed, _ := summarize(setupTimes)
	fmt.Fprintf(out, "setups %d setup_s_min %.6g setup_s_max %.6g\n", len(setupTimes), setupTimes[0], setupTimes[len(setupTimes)-1])
	fmt.Fprintf(out, "subruns %d of %v after a %v warm-up; each metric is their best, each extra their median; n counts all samples\n", w.subRuns, each, d/warmShare)
	ms := append(metrics{{Name: "setup_s", Unit: "s", Value: setupMed.Value, P: 50, N: setupMed.N}}, best(all)...)
	printMetrics(out, "metric", ms)
	printMetrics(out, "extra", medianOf(extras))
	total := mergeChecks(reps)
	// missed_frac covers every sub-run and the warm-up, like the result
	// line's failed ÷ attempted.
	printMetrics(out, "metric", metrics{{Name: "missed_frac", Unit: "ratio", Value: ratio(float64(total.failed()), float64(total.expected))}})
	correct := printCheck(out, total)
	res := &result{Correct: correct, Attempted: total.expected, Failed: total.failed(), Metrics: map[string]jsonMetric{}}
	for _, e := range endToEnd {
		m, _ := ms.get(e.name)
		res.Metrics[e.name] = jsonMetric{Value: m.Value, Unit: e.unit}
	}
	return res, nil
}

// medianOf takes metric lists of one shape and returns, per metric, the
// median value with the sample counts summed.
func medianOf(sets []metrics) metrics {
	if len(sets) == 0 {
		return nil
	}
	out := append(metrics(nil), sets[0]...)
	for i := range out {
		xs := make([]float64, 0, len(sets))
		n := 0
		for _, ms := range sets {
			xs = append(xs, ms[i].Value)
			n += ms[i].N
		}
		med, _ := summarize(xs)
		out[i].Value, out[i].N = med.Value, n
	}
	return out
}

// best takes metric lists of one shape and returns, per metric, its
// best value (in endToEnd's direction), with the sample counts summed.
func best(sets []metrics) metrics {
	out := append(metrics(nil), sets[0]...)
	for i := range out {
		higher := false
		for _, e := range endToEnd {
			if e.name == out[i].Name {
				higher = e.better == "higher"
			}
		}
		n := 0
		for j, ms := range sets {
			v := ms[i].Value
			if j == 0 || (higher && v > out[i].Value) || (!higher && v < out[i].Value) {
				out[i].Value = v
			}
			n += ms[i].N
		}
		out[i].N = n
	}
	return out
}

// mergeChecks sums the reference checks of several runs.
func mergeChecks(reps []*report) *report {
	total := &report{}
	for _, r := range reps {
		total.expected += r.expected
		total.missing += r.missing
		total.wrong += r.wrong
		total.dup += r.dup
		total.problems = append(total.problems, r.problems...)
	}
	return total
}

// endToEndMetrics derives the end-to-end metric set of a run.
func endToEndMetrics(rep *report) metrics {
	var ms metrics
	ms.add("events_per_s", "1/s", ratio(float64(rep.events), rep.wall.Seconds()))
	med, tail := summarize(rep.deliver)
	ms.addPctl("deliver_p50_us", "us", med)
	ms.addPctl("deliver_p99_us", "us", tail)
	ms.add("allocs_per_event", "count", ratio(float64(rep.mem.mallocs), float64(rep.events)))
	ms.add("heap_live_mb", "MiB", float64(rep.mem.heapLive)/(1<<20))
	return ms
}

func printMetrics(out *bufio.Writer, kind string, ms metrics) {
	for _, m := range ms {
		if m.N > 0 {
			fmt.Fprintf(out, "%s %s %.6g %s p%g n=%d\n", kind, m.Name, m.Value, m.Unit, m.P, m.N)
		} else {
			fmt.Fprintf(out, "%s %s %.6g %s\n", kind, m.Name, m.Value, m.Unit)
		}
	}
}

// printCheck prints the reference-check verdict and returns it.
func printCheck(out *bufio.Writer, rep *report) bool {
	ok := rep.failed() == 0 && len(rep.problems) == 0 && rep.expected > 0
	verdict := "pass"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "check reference=%s expected=%d missing=%d wrong=%d duplicated=%d\n",
		verdict, rep.expected, rep.missing, rep.wrong, rep.dup)
	for _, p := range rep.problems {
		fmt.Fprintf(out, "check problem: %s\n", p)
	}
	return ok
}

// tracedRun warms up like an untraced run, drives half of the rest
// untraced, then the other half on a fresh set-up with the registry,
// spans and CPU profile on, and prints the per-layer metrics of the
// traced half.
func tracedRun(out *bufio.Writer, w *workload, seed int64, d time.Duration, spanPath string) (*result, error) {
	if _, _, err := driveOnce(w, setupConfig{seed: seed}, d/warmShare); err != nil {
		return nil, err
	}
	half := (d - d/warmShare) / 2
	base, _, err := driveOnce(w, setupConfig{seed: seed}, half)
	if err != nil {
		return nil, err
	}

	reg := telemetry.NewRegistry()
	// ~270 peers carry per-peer series (agg_ingest_items); the guard
	// must not fold any of them into the overflow series.
	reg.SetMaxSeries(4096)
	tr := newTracer()
	b, _, err := setupOnce(w, setupConfig{seed: seed, reg: reg, tr: tr})
	if err != nil {
		return nil, err
	}
	defer b.close()
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rep, err := b.run(half)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, leaves, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading the CPU profile: %w", err)
	}

	baseEPS := ratio(float64(base.events), base.wall.Seconds())
	tracedEPS := ratio(float64(rep.events), rep.wall.Seconds())
	ms := append(metrics(nil), rep.layers...)
	for _, bk := range cpuBuckets {
		ms.add("cpu."+bk, "ratio", shares[bk])
	}
	ms.add("gc.cycles_per_kevent", "count", ratio(float64(rep.mem.gcs)*1000, float64(rep.events)))
	ms.add("trace.untraced_events_per_s", "1/s", baseEPS)
	ms.add("trace.traced_events_per_s", "1/s", tracedEPS)
	ms.add("trace.overhead_frac", "ratio", ratio(baseEPS, tracedEPS)-1)
	self := tr.layerSelf()
	for _, l := range spanLayers {
		ms.add("self."+l+"_us_per_event", "us", ratio(micros(self[l]), float64(rep.events)))
	}
	dropped := reg.DroppedSeries()
	ms.add("telemetry.series_dropped", "count", float64(dropped))

	fmt.Fprintf(out, "untraced events_per_s %.6g (d=%v) traced events_per_s %.6g\n", baseEPS, half, tracedEPS)
	tr.print(out)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(out, "self %-10s %.3f ms\n", l, millis(self[l]))
	}
	printMetrics(out, "layer", ms)
	fns := make([]string, 0, len(leaves))
	for fn := range leaves {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return leaves[fns[i]] > leaves[fns[j]] })
	for i, fn := range fns {
		if i == 12 {
			break
		}
		fmt.Fprintf(out, "cpu.leaf %-40s %.4f (in %s)\n", fn, leaves[fn], bucketOf([]string{fn}))
	}
	okBase := printCheck(out, base)
	ok := printCheck(out, rep) && okBase
	if dropped != 0 {
		fmt.Fprintf(out, "check problem: telemetry_series_dropped_total = %d\n", dropped)
		ok = false
	}
	if err := tr.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans %d kept in %s (%d not kept)\n", len(tr.kept), spanPath, tr.lost)

	res := &result{Correct: ok, Attempted: rep.expected + base.expected, Failed: rep.failed() + base.failed(), Metrics: map[string]jsonMetric{}}
	for _, pl := range perLayer {
		m, _ := ms.get(pl.name)
		res.Metrics[pl.name] = jsonMetric{Value: m.Value, Unit: pl.unit}
	}
	return res, nil
}

// spanLayers are the layers the driver's spans are named after.
var spanLayers = []string{"driver", "soap", "operators", "peer", "p2pml", "algebra", "transport"}
