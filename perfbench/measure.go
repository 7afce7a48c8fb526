package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
)

// ladder lists the percentiles a timing may be reported at, lowest
// first. A timing is reported at its median and at the highest rung
// that still has at least tailMin samples beyond it.
var ladder = []float64{50, 90, 99}

const tailMin = 10

// pctl is one percentile of a sample set, with the sample count.
type pctl struct {
	P     float64 // the percentile, e.g. 99
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize sorts xs in place and returns its median and its tail: the
// highest ladder percentile with at least tailMin samples beyond its
// rank (the median when no rung qualifies).
func summarize(xs []float64) (median, tail pctl) {
	sort.Float64s(xs)
	n := len(xs)
	median = pctl{P: 50, Value: percentile(xs, 50), N: n}
	tail = median
	for _, p := range ladder[1:] {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank < tailMin {
			break
		}
		tail = pctl{P: p, Value: percentile(xs, p), N: n}
	}
	return median, tail
}

// metric is one named, unit-carrying number the benchmark prints. N > 0
// marks a percentile, with P its rank and N its sample count.
type metric struct {
	Name  string
	Unit  string
	Value float64
	P     float64
	N     int
}

// metrics is an ordered metric list with name lookup.
type metrics []metric

func (ms *metrics) add(name, unit string, v float64) {
	*ms = append(*ms, metric{Name: name, Unit: unit, Value: v})
}

// addPctl adds a percentile metric.
func (ms *metrics) addPctl(name, unit string, p pctl) {
	*ms = append(*ms, metric{Name: name, Unit: unit, Value: p.Value, P: p.P, N: p.N})
}

// addTimings adds <prefix>.p50 and <prefix>.p99 for a sample set (the
// p99 slot carries the highest percentile the samples support).
func (ms *metrics) addTimings(prefix, unit string, xs []float64) {
	med, tail := summarize(xs)
	ms.addPctl(prefix+".p50", unit, med)
	ms.addPctl(prefix+".p99", unit, tail)
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// report is what one measured run of a workload produces.
type report struct {
	// events counts monitored calls driven (events aggregated on
	// net-loopback); wall is the measured wall time.
	events int
	wall   time.Duration
	// deliver holds one wall-clock delivery latency per result, in µs;
	// deliverVirt the same on the simnet clock, in virtual seconds.
	deliver     []float64
	deliverVirt []float64
	// The reference check: results a correct run delivers, and how
	// many were missing, wrong or duplicated.
	expected, missing, wrong, dup int
	// problems lists every reference-check failure in words.
	problems []string
	mem      memProbe
	// extra are workload-specific end-to-end figures (printed, not in
	// the result line); layers are the traced run's per-layer metrics.
	extra  metrics
	layers metrics
}

func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// failed is the number of failed operations: missing, wrong and
// duplicated results.
func (r *report) failed() int { return r.missing + r.wrong + r.dup }

// memProbe samples allocation and live-heap figures around a measured
// phase.
type memProbe struct {
	mallocs0, mallocs uint64
	gcs0, gcs         uint32
	heapLive          uint64
	heapTaken         bool
	paused            time.Duration // time the heap sample spent in forced GC
}

func (m *memProbe) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs0, m.gcs0 = ms.Mallocs, ms.NumGC
}

// heap records the live heap after a forced GC, once per run. The
// workloads call it after a fixed amount of work, so the figure does
// not grow with throughput; its GC time is left out of the wall clock.
func (m *memProbe) heap() {
	if m.heapTaken {
		return
	}
	t0 := time.Now()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapLive, m.heapTaken = ms.HeapAlloc, true
	m.paused += time.Since(t0)
}

// stop closes the measured phase. The forced GC of the heap sample is
// not counted against the program.
func (m *memProbe) stop() {
	m.heap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.gcs = ms.Mallocs-m.mallocs0, ms.NumGC-m.gcs0-1
}

// stallLimit bounds how long the driver waits for a result it expects.
// A result that never comes is a program defect; the guard turns the
// hang into a counted miss. Tests shorten it.
var stallLimit = 5 * time.Second

// guard closes the watched queues when the driver makes no progress for
// stallLimit, so a blocked Pop returns instead of hanging the run.
type guard struct {
	t     *time.Timer
	once  sync.Once
	fired chan struct{}
}

func newGuard(qs []*stream.Queue) *guard {
	g := &guard{fired: make(chan struct{})}
	g.t = time.AfterFunc(stallLimit, func() {
		g.once.Do(func() { close(g.fired) })
		for _, q := range qs {
			q.Close()
		}
	})
	return g
}

// kick records progress.
func (g *guard) kick() { g.t.Reset(stallLimit) }

func (g *guard) stop() { g.t.Stop() }

// tripped reports whether the guard closed the queues.
func (g *guard) tripped() bool {
	select {
	case <-g.fired:
		return true
	default:
		return false
	}
}

// counterSum sums a counter family across all its label sets.
func counterSum(s telemetry.Snapshot, name string) float64 {
	var v int64
	for _, m := range s.Metrics {
		if m.Name == name {
			v += m.Value
		}
	}
	return float64(v)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
