package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/peer"
	"p2pm/internal/simnet"
	"p2pm/internal/xmltree"
)

// AggConfig parameterizes the aggregate-query scenario: S monitored
// source peers feed a windowed group-by statistic (per-source call
// rates, the Edos motivation) that is aggregated either flat — one Group
// operator ingesting every stream, the O(n) hotspot — or as a DHT-routed
// partial/merge tree (Mode "tree"), while churn, graceful leaves and
// runtime joins reshape the merge-host pool. Completeness is measured
// per windowed group, against the deterministic expectation replayed
// from the drive schedule through the same aggregate monoid.
type AggConfig struct {
	Seed    int64
	Sources int // monitored source peers s0..sS-1
	Workers int // merge-host pool w0..wW-1
	Events  int // client calls, driven round-robin across the sources
	// Mode selects the deployment: "flat" (single Group aggregator) or
	// "tree" (in-network aggregation, docs/AGGREGATION.md).
	Mode string
	// Degree is the tree fan-in bound (tree mode; default 3).
	Degree int
	// Fn selects the aggregate function: "" or "count" (the exact
	// default), or any registered monoid — sum, min, max, avg, set,
	// distinct (HyperLogLog), freq (Count-Min). Value-consuming
	// functions aggregate the per-call value the drive encodes as the
	// invoked method name (the alert's callMethod attribute).
	Fn string
	// Users sizes the value universe for value-consuming functions:
	// event i carries value 1 + (i*7919 mod Users). 0 defaults to 24 —
	// within the freq monoid's exact candidate capacity, so Count-Min
	// runs score byte-exactly too.
	Users int
	// Window is the tumbling window; 0 defaults to 8×Step. Keep it a
	// multiple of Step so virtual event times land inside windows.
	Window time.Duration
	// Step is the virtual time between driven events.
	Step time.Duration
	// CrashEvery crashes the current aggregation host — the first tree
	// interior's host, or the flat aggregator's — every k events.
	CrashEvery int
	// LeaveEvery makes the current aggregation host gracefully leave
	// every k events (rejoining after MTTR via the membership protocol).
	LeaveEvery int
	// MTTR is the downtime before a crashed or departed host returns.
	MTTR time.Duration
	// HeartbeatInterval / Suspicion configure the failure detector.
	HeartbeatInterval time.Duration
	Suspicion         time.Duration
	// Replay enables the lossless layer (buffers, cursors, checkpoints).
	Replay             bool
	ReplayBuffer       int
	CheckpointInterval time.Duration
	// Detector is "home" or "gossip" (default gossip — the decentralized
	// detection the tree's decentralized aggregation pairs with).
	Detector string
	// GrowFrom, when in [1, Workers), starts with that many workers; the
	// rest join at runtime (tree interiors re-parent onto new DHT
	// owners). 0 pre-registers the whole pool.
	GrowFrom int
	// JoinEvery admits one pending worker every N events (0 with
	// GrowFrom set spreads the joins evenly).
	JoinEvery int
}

// DefaultAgg returns a moderate aggregate-query scenario.
func DefaultAgg() AggConfig {
	return AggConfig{
		Seed: 1, Sources: 6, Workers: 3, Events: 96, Mode: "tree", Degree: 3,
		Step: time.Second, MTTR: 10 * time.Second,
		HeartbeatInterval: time.Second, Suspicion: 2 * time.Second,
		Detector: "gossip",
	}
}

// AggReport summarizes one aggregate-query run.
type AggReport struct {
	Fn             string // aggregate function the run deployed
	Driven         int
	Windows        int // distinct windows the schedule spans
	ExpectedGroups int // (window, key) records a lossless run emits
	CorrectGroups  int // emitted records matching the expectation exactly
	ResultGroups   int // records actually emitted
	Crashes        int
	Leaves         int
	Deaths         int
	Repairs        int
	// LeaveRepairs counts migrations the graceful-leave handoffs took
	// (they bypass the supervisor, so Repairs does not include them).
	LeaveRepairs int
	Joins        int
	Replayed     uint64
	// Records holds the emitted result records, serialized and sorted —
	// the byte-identity artifact X4 compares between tree and flat runs.
	Records []string
	// SketchGroups / MaxRelErr / MeanRelErr score distinct-count runs:
	// each delivered HyperLogLog estimate against the exact per-group
	// distinct count replayed from the drive schedule. Sketch error is
	// deterministic here (the registers depend only on the value set),
	// so the accuracy gate is reproducible, not flaky.
	SketchGroups int
	MaxRelErr    float64
	MeanRelErr   float64
	// Ingest is the per-peer operator ingest (items consumed by plan
	// operators hosted there) over the candidate aggregation hosts —
	// every source and every worker, zeros included: the denominator of
	// the hotspot measure.
	Ingest     map[string]uint64
	IngestMax  uint64
	IngestMean float64
	Timeline   []string
	Traffic    simnet.Totals
}

// Completeness is the fraction of expected windowed groups that arrived
// with exactly the right record.
func (r *AggReport) Completeness() float64 {
	if r.ExpectedGroups == 0 {
		return 1
	}
	return float64(r.CorrectGroups) / float64(r.ExpectedGroups)
}

// IngestRatio is max/mean per-peer ingest — the hotspot factor. A flat
// aggregator concentrates everything on one host (ratio ~ pool size); a
// degree-d tree bounds every host's fan-in.
func (r *AggReport) IngestRatio() float64 {
	if r.IngestMean == 0 {
		return 0
	}
	return float64(r.IngestMax) / r.IngestMean
}

// AggLab is one assembled aggregate-query scenario.
type AggLab struct {
	Sys  *peer.System
	Task *peer.Task
	Sup  *peer.Supervisor
	cfg  AggConfig

	agg   monoid.Monoid // the deployed aggregate (count when Fn is "")
	sched *schedRunner
}

// SetupAgg builds the scenario: sources host the monitored service and
// its ws-in alerter, the aggregation (flat Group at w0, or the planner's
// tree with interiors DHT-routed across the worker pool) publishes at
// mgr, and a supervisor watches everything.
func SetupAgg(cfg AggConfig) (*AggLab, error) {
	if cfg.Sources < 2 || cfg.Workers < 1 {
		return nil, fmt.Errorf("workload: agg needs >= 2 sources and >= 1 worker (got %d/%d)", cfg.Sources, cfg.Workers)
	}
	switch cfg.Mode {
	case "flat", "tree":
	default:
		return nil, fmt.Errorf("workload: unknown agg mode %q (want flat or tree)", cfg.Mode)
	}
	fn := cfg.Fn
	if fn == "count" {
		fn = ""
	}
	agg, ok := monoid.Lookup(fn)
	if !ok {
		return nil, fmt.Errorf("workload: unknown aggregate %q (have count, %s)", cfg.Fn, strings.Join(monoid.Names(), ", "))
	}
	if cfg.Users <= 0 {
		cfg.Users = 24
	}
	if cfg.Degree <= 1 {
		cfg.Degree = 3
	}
	if cfg.Step <= 0 {
		cfg.Step = time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 8 * cfg.Step
	}
	startWorkers := cfg.Workers
	if cfg.GrowFrom > 0 {
		if cfg.GrowFrom >= cfg.Workers {
			return nil, fmt.Errorf("workload: GrowFrom %d out of range [1, %d)", cfg.GrowFrom, cfg.Workers)
		}
		startWorkers = cfg.GrowFrom
	}

	pc := peer.DefaultConfig()
	pc.Seed = cfg.Seed
	if cfg.Mode == "tree" {
		pc.Agg.Degree = cfg.Degree
	}
	if cfg.Replay {
		pc.Replay.Buffer = cfg.ReplayBuffer
		if pc.Replay.Buffer <= 0 {
			pc.Replay.Buffer = 4096
		}
		pc.Replay.CheckpointInterval = cfg.CheckpointInterval
		if pc.Replay.CheckpointInterval <= 0 {
			pc.Replay.CheckpointInterval = 2 * cfg.HeartbeatInterval
		}
		if pc.Replay.CheckpointInterval <= 0 {
			pc.Replay.CheckpointInterval = 2 * time.Second
		}
	}
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	mgr, err := sys.AddPeer("mgr")
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"c.com", "mon"} {
		if _, err := sys.AddPeer(name); err != nil {
			return nil, err
		}
	}
	echo := func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}
	var branches []*algebra.Node
	for i := 0; i < cfg.Sources; i++ {
		name := fmt.Sprintf("s%d", i)
		sp, err := sys.AddPeer(name)
		if err != nil {
			return nil, err
		}
		sp.Endpoint().Register("Q", echo, nil)
		if agg.NeedsValue() {
			// Value-consuming functions encode the per-call value as the
			// invoked method name, so the ws-in alert carries it in
			// callMethod without any new plumbing.
			for u := 1; u <= cfg.Users; u++ {
				sp.Endpoint().Register(strconv.Itoa(u), echo, nil)
			}
		}
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", name, "e", nil))
	}
	for i := 0; i < startWorkers; i++ {
		if _, err := sys.AddPeer(fmt.Sprintf("w%d", i)); err != nil {
			return nil, err
		}
	}
	// Merge operators belong on the worker pool: sources, client,
	// manager and monitor are load-biased against failover placement and
	// excluded from DHT-routed interior placement.
	for _, busy := range []string{"mgr", "c.com", "mon"} {
		sys.Net.AddLoad(busy, 1000)
	}
	for i := 0; i < cfg.Sources; i++ {
		sys.Net.AddLoad(fmt.Sprintf("s%d", i), 1000)
	}
	// DHT-routed interiors stay on the worker pool — and off w0, the
	// Final root's host, when the pool allows it: stacking the root and
	// an interior on one peer would re-create a mini-hotspot.
	sys.SetAggHosts(func(name string) bool {
		if !strings.HasPrefix(name, "w") {
			return false
		}
		return cfg.Workers == 1 || name != "w0"
	})

	spec := &algebra.GroupSpec{KeyAttr: "callee", Window: cfg.Window.String(), Fn: fn}
	if agg.NeedsValue() {
		spec.ValueAttr = "callMethod"
	}
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union},
		Schema: []string{"e"},
		Group:  spec,
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "aggstats"},
	}
	task, err := mgr.DeployPlan(plan)
	if err != nil {
		return nil, err
	}
	lab := &AggLab{Sys: sys, Task: task, cfg: cfg, agg: agg, sched: newSchedRunner(sys)}
	for i := startWorkers; i < cfg.Workers; i++ {
		lab.sched.pending = append(lab.sched.pending, fmt.Sprintf("w%d", i))
	}
	switch cfg.Detector {
	case "", "gossip":
		lab.Sup = sys.StartGossipSupervisor(peer.GossipOptions{
			Seed: cfg.Seed, ProbeInterval: cfg.HeartbeatInterval, Suspicion: cfg.Suspicion,
		})
	case "home":
		lab.Sup = sys.StartSupervisor("mon", peer.DetectorOptions{
			Interval: cfg.HeartbeatInterval, Suspicion: cfg.Suspicion,
		})
	default:
		return nil, fmt.Errorf("workload: unknown detector mode %q (want home or gossip)", cfg.Detector)
	}
	lab.sched.attach(lab.Sup)
	return lab, nil
}

// AggHost returns the peer currently hosting the crash-schedule target:
// the first DHT-routed interior in tree mode (the flat aggregator, or
// the Final root, otherwise).
func (l *AggLab) AggHost() string {
	if ins := aggtree.Interiors(l.Task.Plan); len(ins) > 0 {
		return ins[0].Peer
	}
	host := ""
	l.Task.Plan.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpGroup, algebra.OpMergeAgg:
			host = n.Peer
		}
	})
	return host
}

// value returns the per-call value event i carries (the invoked method
// name) in value-consuming runs.
func (l *AggLab) value(i int) string {
	return strconv.Itoa(1 + (i*7919)%l.cfg.Users)
}

// expected replays the drive schedule — event i calls source i mod S at
// virtual time i×Step carrying value(i) — through the same monoid the
// deployment runs, producing per-(window|key) the exact record a
// lossless run emits, plus the true distinct-value count per group (the
// accuracy reference for sketch estimates). Replaying the monoid itself
// keeps the expectation byte-exact even for sketches: HLL registers and
// Count-Min cells depend only on the absorbed value multiset, never on
// arrival order or partial/merge splits.
func (l *AggLab) expected() (map[string]*xmltree.Node, map[string]int) {
	states := make(map[string]monoid.State)
	windows := make(map[string]int64)
	keys := make(map[string]string)
	exact := make(map[string]map[string]bool)
	for i := 0; i < l.cfg.Events; i++ {
		w := int64(time.Duration(i) * l.cfg.Step / l.cfg.Window)
		key := fmt.Sprintf("http://s%d", i%l.cfg.Sources)
		gk := fmt.Sprintf("%d|%s", w, key)
		st := states[gk]
		if st == nil {
			st = l.agg.Zero()
			states[gk] = st
			windows[gk], keys[gk] = w, key
			exact[gk] = make(map[string]bool)
		}
		val := ""
		if l.agg.NeedsValue() {
			val = l.value(i)
			exact[gk][val] = true
		}
		st.Absorb(val) //nolint:errcheck // schedule values are well-formed
	}
	recs := make(map[string]*xmltree.Node, len(states))
	for gk, st := range states {
		n := xmltree.Elem("group")
		n.SetAttr("key", keys[gk])
		st.Final(func(a, v string) { n.SetAttr(a, v) })
		n.SetAttr("window", strconv.FormatInt(windows[gk], 10))
		recs[gk] = n
	}
	distinct := make(map[string]int, len(exact))
	for gk, vals := range exact {
		distinct[gk] = len(vals)
	}
	return recs, distinct
}

// Run drives the events while injecting the crash/leave/join schedules,
// settles the detection and replay machinery, stops the task and scores
// the emitted windowed records against the schedule's expectation.
func (l *AggLab) Run() (*AggReport, error) {
	cfg := l.cfg
	sys, client := l.Sys, l.Sys.Peer("c.com")
	rep := &AggReport{Fn: l.agg.Name()}
	r := l.sched

	err := r.run(schedule{
		Events: cfg.Events, Step: cfg.Step, MTTR: cfg.MTTR,
		CrashEvery: cfg.CrashEvery, LeaveEvery: cfg.LeaveEvery, JoinEvery: cfg.JoinEvery,
		Drive: func(i int) error {
			target := fmt.Sprintf("s%d", i%cfg.Sources)
			method := "Q"
			if l.agg.NeedsValue() {
				method = l.value(i)
			}
			if _, err := client.Endpoint().Invoke(target, method, nil); err != nil {
				return fmt.Errorf("workload: driving event %d: %w", i, err)
			}
			return nil
		},
		Victim: l.AggHost,
		// Only workers crash or leave (an interior that fell back onto a
		// biased peer would take its alerter down with it).
		VictimOK: func(v string) bool { return strings.HasPrefix(v, "w") },
	})
	if err != nil {
		return nil, err
	}
	rep.Driven = r.driven
	rep.Crashes = r.crashes
	rep.Leaves = r.leaves
	rep.Joins = r.joins
	rep.LeaveRepairs = r.leaveRepairs

	// Let outstanding detections and repairs finish, then give the
	// anti-entropy sweep a few rounds to refill any remaining losses.
	for i := 0; i < 64 && len(r.pendingSuspects()) > 0; i++ {
		sys.Step(cfg.Step)
	}
	for i := 0; i < 8; i++ {
		sys.Step(cfg.Step)
	}
	sys.Quiesce()

	// Ingest snapshot before teardown, over the candidate host set —
	// read from the System.AggLoad stats surface (the same gauge the
	// re-chunking controller consumes), filtered to this task.
	byPeer := make(map[string]uint64)
	for _, e := range sys.AggLoad() {
		if e.Task == l.Task.ID {
			byPeer[e.Peer] += e.Items
		}
	}
	rep.Ingest = make(map[string]uint64)
	var total uint64
	hosts := 0
	addHost := func(name string) {
		rep.Ingest[name] = byPeer[name]
		total += byPeer[name]
		if byPeer[name] > rep.IngestMax {
			rep.IngestMax = byPeer[name]
		}
		hosts++
	}
	for i := 0; i < cfg.Sources; i++ {
		addHost(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < cfg.Workers; i++ {
		addHost(fmt.Sprintf("w%d", i))
	}
	if hosts > 0 {
		rep.IngestMean = float64(total) / float64(hosts)
	}

	l.Task.Stop()
	exp, exactDistinct := l.expected()
	rep.Windows = func() int {
		seen := map[string]bool{}
		for k := range exp {
			seen[strings.SplitN(k, "|", 2)[0]] = true
		}
		return len(seen)
	}()
	rep.ExpectedGroups = len(exp)
	gotCounts := make(map[string]int)
	gotRecs := make(map[string][]*xmltree.Node)
	for _, it := range l.Task.Results().Drain() {
		if it.Tree.Label != "group" {
			continue
		}
		rep.ResultGroups++
		k := it.Tree.AttrOr("window", "?") + "|" + it.Tree.AttrOr("key", "?")
		if l.agg.NeedsValue() {
			gotRecs[k] = append(gotRecs[k], it.Tree)
		} else {
			// Counts are commutative deltas: a lossy run may split a
			// group across emissions, and the split still scores correct
			// when the total survives.
			n := 0
			fmt.Sscanf(it.Tree.AttrOr("count", "0"), "%d", &n)
			gotCounts[k] += n
		}
		rep.Records = append(rep.Records, it.Tree.String())
	}
	sort.Strings(rep.Records)
	for gk, want := range exp {
		if l.agg.NeedsValue() {
			rs := gotRecs[gk]
			if len(rs) == 1 && rs[0].String() == want.String() {
				rep.CorrectGroups++
			}
		} else if n, err := strconv.Atoi(want.AttrOr("count", "0")); err == nil && gotCounts[gk] == n {
			rep.CorrectGroups++
		}
	}
	if l.agg.Name() == "distinct" {
		var sum float64
		for gk, truth := range exactDistinct {
			rs := gotRecs[gk]
			if len(rs) != 1 || truth == 0 {
				continue
			}
			est, err := strconv.ParseFloat(rs[0].AttrOr("distinct", ""), 64)
			if err != nil {
				continue
			}
			re := math.Abs(est-float64(truth)) / float64(truth)
			rep.SketchGroups++
			sum += re
			if re > rep.MaxRelErr {
				rep.MaxRelErr = re
			}
		}
		if rep.SketchGroups > 0 {
			rep.MeanRelErr = sum / float64(rep.SketchGroups)
		}
	}
	rep.Deaths = len(l.Sup.Deaths())
	for _, ev := range l.Sup.Events() {
		if ev.Repaired() {
			rep.Repairs++
		}
	}
	rep.Replayed = sys.ReplayedItems()
	rep.Timeline = append([]string(nil), r.timeline...)
	rep.Traffic = sys.Net.Totals()
	return rep, nil
}
