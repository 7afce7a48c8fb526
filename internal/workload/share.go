package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/simnet"
	"p2pm/internal/xmltree"
)

// ShareConfig parameterizes the multi-tenant aggregation scenario: many
// overlapping windowed-group subscriptions over the same source pool,
// deployed either independently (Mode "unshared" — every task builds its
// own aggregation tree) or through the reuse pass (Mode "shared" —
// identical aggregates resolve to a channel on the existing tree's root,
// and contained ones graft onto its partial streams). Each subscription
// is scored for byte-identity against the deterministic expectation
// replayed from the drive schedule, so sharing is measured as pure
// deployment savings, never as an answer change.
type ShareConfig struct {
	Seed    int64
	Sources int // monitored source peers s0..sS-1
	Workers int // merge-host pool w0..wW-1
	// Subs is the number of subscriptions. Subscription 0 spans every
	// source; later ones cover sliding sub-ranges, so the population
	// mixes exact duplicates, contained subsets and partial overlaps.
	Subs   int
	Events int // client calls, driven round-robin across the sources
	// Degree is the tree fan-in bound (default 3).
	Degree int
	// Mode is "shared" (deploy through the reuse pass) or "unshared".
	Mode string
	// Window is the tumbling window; 0 defaults to 8×Step.
	Window time.Duration
	// Step is the virtual time between driven events.
	Step time.Duration
	// CrashEvery crashes the current shared-interior host every k events;
	// LeaveEvery makes it gracefully leave (rejoining after MTTR).
	CrashEvery int
	LeaveEvery int
	MTTR       time.Duration
	// HeartbeatInterval / Suspicion configure the failure detector.
	HeartbeatInterval time.Duration
	Suspicion         time.Duration
	// Replay enables the lossless layer; on by default in DefaultShare —
	// byte-identity through churn needs it.
	Replay             bool
	ReplayBuffer       int
	CheckpointInterval time.Duration
	// Detector is "home" or "gossip" (default gossip).
	Detector string
	// GrowFrom, when in [1, Workers), starts with that many workers; the
	// rest join at runtime, re-parenting shared interiors onto the new
	// DHT owners under every subscriber's feet.
	GrowFrom int
	// JoinEvery admits one pending worker every N events (0 with
	// GrowFrom set spreads the joins evenly).
	JoinEvery int
}

// DefaultShare returns a moderate sharing scenario.
func DefaultShare() ShareConfig {
	return ShareConfig{
		Seed: 1, Sources: 6, Workers: 4, Subs: 12, Events: 48, Degree: 3,
		Mode: "shared", Step: time.Second, MTTR: 10 * time.Second,
		HeartbeatInterval: time.Second, Suspicion: 2 * time.Second,
		Replay: true, Detector: "gossip",
	}
}

// ShareReport summarizes one multi-tenant aggregation run.
type ShareReport struct {
	Mode   string
	Subs   int
	Driven int
	// Operators sums every task's deployed operator count — the sharing
	// headline: unshared grows linearly in Subs × Sources, shared
	// sublinearly (later subscriptions deploy a root, or nothing).
	Operators int
	// ReusedOps / NewOps sum the reuse pass's accounting over all
	// subscriptions (zero in unshared mode).
	ReusedOps int
	NewOps    int
	// Lookups / FailedLookups sum the discovery traffic of the reuse
	// passes.
	Lookups       int
	FailedLookups int
	// ExpectedGroups / CorrectGroups score each subscription's windowed
	// records against its own schedule replay; ByteIdenticalSubs counts
	// subscriptions whose full record set matched byte-for-byte.
	ExpectedGroups    int
	CorrectGroups     int
	ByteIdenticalSubs int
	// Mismatches describes each non-identical subscription (diagnostics).
	Mismatches   []string
	Crashes      int
	Leaves       int
	Joins        int
	Deaths       int
	Repairs      int
	LeaveRepairs int
	Replayed     uint64
	// Ingest is the per-peer operator ingest over sources and workers —
	// sharing shows up as a lower max (partial streams fan out once, not
	// once per subscription).
	Ingest     map[string]uint64
	IngestMax  uint64
	IngestMean float64
	Timeline   []string
	Traffic    simnet.Totals
}

// Completeness is the fraction of expected windowed groups that arrived
// byte-exactly, across all subscriptions.
func (r *ShareReport) Completeness() float64 {
	if r.ExpectedGroups == 0 {
		return 1
	}
	return float64(r.CorrectGroups) / float64(r.ExpectedGroups)
}

// IngestRatio is max/mean per-peer ingest — the hotspot factor.
func (r *ShareReport) IngestRatio() float64 {
	if r.IngestMean == 0 {
		return 0
	}
	return float64(r.IngestMax) / r.IngestMean
}

// OpsPerSub is the mean operator count one subscription cost to deploy.
func (r *ShareReport) OpsPerSub() float64 {
	if r.Subs == 0 {
		return 0
	}
	return float64(r.Operators) / float64(r.Subs)
}

// subRange is one subscription's half-open source interval.
type subRange struct{ start, end int }

// shareRange derives subscription j's source interval: sub 0 spans all
// sources (it seeds the full tree); later subs cycle through lengths
// 2..S at sliding offsets, producing duplicates, prefixes and partial
// overlaps deterministically.
func shareRange(j, sources int) subRange {
	if j == 0 {
		return subRange{0, sources}
	}
	length := 2 + (j-1)%(sources-1)
	start := (j - 1) % (sources - length + 1)
	return subRange{start, start + length}
}

// ShareLab is one assembled multi-tenant aggregation scenario.
type ShareLab struct {
	Sys   *peer.System
	Tasks []*peer.Task
	Sup   *peer.Supervisor
	cfg   ShareConfig
	sched *schedRunner
}

// SetupShare builds the scenario and deploys every subscription — before
// any event is driven, because windowed aggregation is watermark-based:
// a subscriber arriving after a window closed can never see it, so
// byte-identity is only a fair gate for subscriptions that watched the
// whole run.
func SetupShare(cfg ShareConfig) (*ShareLab, error) {
	if cfg.Sources < 2 || cfg.Workers < 1 || cfg.Subs < 1 {
		return nil, fmt.Errorf("workload: share needs >= 2 sources, >= 1 worker, >= 1 sub (got %d/%d/%d)", cfg.Sources, cfg.Workers, cfg.Subs)
	}
	switch cfg.Mode {
	case "shared", "unshared":
	default:
		return nil, fmt.Errorf("workload: unknown share mode %q (want shared or unshared)", cfg.Mode)
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
	pc.Agg.Degree = cfg.Degree
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
	for i := 0; i < cfg.Sources; i++ {
		sp, err := sys.AddPeer(fmt.Sprintf("s%d", i))
		if err != nil {
			return nil, err
		}
		sp.Endpoint().Register("Q", echo, nil)
	}
	for i := 0; i < startWorkers; i++ {
		if _, err := sys.AddPeer(fmt.Sprintf("w%d", i)); err != nil {
			return nil, err
		}
	}
	for _, busy := range []string{"mgr", "c.com", "mon"} {
		sys.Net.AddLoad(busy, 1000)
	}
	for i := 0; i < cfg.Sources; i++ {
		sys.Net.AddLoad(fmt.Sprintf("s%d", i), 1000)
	}
	sys.SetAggHosts(func(name string) bool { return strings.HasPrefix(name, "w") })

	lab := &ShareLab{Sys: sys, cfg: cfg, sched: newSchedRunner(sys)}
	for i := startWorkers; i < cfg.Workers; i++ {
		lab.sched.pending = append(lab.sched.pending, fmt.Sprintf("w%d", i))
	}
	for j := 0; j < cfg.Subs; j++ {
		rng := shareRange(j, cfg.Sources)
		var branches []*algebra.Node
		for i := rng.start; i < rng.end; i++ {
			branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", fmt.Sprintf("s%d", i), "e", nil))
		}
		// Roots spread over the peers present at deploy time; runtime
		// joiners host re-parented interiors instead.
		host := fmt.Sprintf("w%d", j%startWorkers)
		union := &algebra.Node{Op: algebra.OpUnion, Peer: host, Inputs: branches, Schema: []string{"e"}}
		group := &algebra.Node{
			Op: algebra.OpGroup, Peer: host, Inputs: []*algebra.Node{union},
			Schema: []string{"e"},
			Group:  &algebra.GroupSpec{KeyAttr: "callee", Window: cfg.Window.String()},
		}
		plan := &algebra.Node{
			Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
			Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: fmt.Sprintf("share-%04d", j)},
		}
		var task *peer.Task
		if cfg.Mode == "shared" {
			task, err = mgr.DeployPlanShared(plan)
		} else {
			task, err = mgr.DeployPlan(plan)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: deploying subscription %d: %w", j, err)
		}
		lab.Tasks = append(lab.Tasks, task)
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

// ShareHost returns the churn target: the host of the seed task's first
// DHT-routed interior (the shared infrastructure every other
// subscription depends on), falling back to its merge root.
func (l *ShareLab) ShareHost() string {
	seed := l.Tasks[0]
	if ins := aggtree.Interiors(seed.Plan); len(ins) > 0 {
		return ins[0].Peer
	}
	host := ""
	seed.Plan.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpGroup, algebra.OpMergeAgg:
			host = n.Peer
		}
	})
	return host
}

// expected replays the drive schedule through subscription j's source
// interval: per (window|key) the exact <group> record a lossless run
// emits.
func (l *ShareLab) expected(rng subRange) map[string]string {
	counts := make(map[string]int)
	windows := make(map[string]int64)
	keys := make(map[string]string)
	for i := 0; i < l.cfg.Events; i++ {
		src := i % l.cfg.Sources
		if src < rng.start || src >= rng.end {
			continue
		}
		w := int64(time.Duration(i) * l.cfg.Step / l.cfg.Window)
		key := fmt.Sprintf("http://s%d", src)
		gk := fmt.Sprintf("%d|%s", w, key)
		counts[gk]++
		windows[gk], keys[gk] = w, key
	}
	recs := make(map[string]string, len(counts))
	for gk, c := range counts {
		n := xmltree.Elem("group")
		n.SetAttr("key", keys[gk])
		n.SetAttr("count", fmt.Sprint(c))
		n.SetAttr("window", fmt.Sprint(windows[gk]))
		recs[gk] = n.String()
	}
	return recs
}

// Run drives the events while injecting the churn schedules, settles,
// tears the tasks down in dependency order (the seed task first: closing
// its alerter channels floods EOS through every sharing consumer, so
// trailing windows flush before any consumer detaches), and scores every
// subscription byte-exactly.
func (l *ShareLab) Run() (*ShareReport, error) {
	cfg := l.cfg
	sys, client := l.Sys, l.Sys.Peer("c.com")
	rep := &ShareReport{Mode: cfg.Mode, Subs: cfg.Subs}
	r := l.sched

	err := r.run(schedule{
		Events: cfg.Events, Step: cfg.Step, MTTR: cfg.MTTR,
		CrashEvery: cfg.CrashEvery, LeaveEvery: cfg.LeaveEvery, JoinEvery: cfg.JoinEvery,
		Drive: func(i int) error {
			target := fmt.Sprintf("s%d", i%cfg.Sources)
			if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
				return fmt.Errorf("workload: driving event %d: %w", i, err)
			}
			return nil
		},
		Victim:   l.ShareHost,
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

	for i := 0; i < 64 && len(r.pendingSuspects()) > 0; i++ {
		sys.Step(cfg.Step)
	}
	for i := 0; i < 8; i++ {
		sys.Step(cfg.Step)
	}
	sys.Quiesce()

	// Deployment accounting and the ingest snapshot, before teardown —
	// ingest comes from the System.AggLoad stats surface (shared with
	// the re-chunking controller), folded over this lab's tasks.
	byPeer := make(map[string]uint64)
	mine := make(map[string]bool, len(l.Tasks))
	for _, t := range l.Tasks {
		rep.Operators += t.OperatorsDeployed()
		mine[t.ID] = true
		if t.Reuse != nil {
			rep.ReusedOps += t.Reuse.ReusedOps
			rep.NewOps += t.Reuse.NewOps
			rep.Lookups += t.Reuse.Lookups
			rep.FailedLookups += t.Reuse.FailedLookups
		}
	}
	for _, e := range sys.AggLoad() {
		if mine[e.Task] {
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

	// Teardown in deployment order: earlier tasks never consume later
	// ones' streams, so stopping the seed first propagates EOS to every
	// dependent before its own Stop detaches it.
	l.Tasks[0].Stop()
	sys.Quiesce()
	for _, t := range l.Tasks[1:] {
		t.Stop()
	}
	sys.Quiesce()

	for j, t := range l.Tasks {
		exp := l.expected(shareRange(j, cfg.Sources))
		rep.ExpectedGroups += len(exp)
		got := make(map[string][]string)
		extra := 0
		for _, it := range t.Results().Drain() {
			if it.Tree.Label != "group" {
				continue
			}
			gk := it.Tree.AttrOr("window", "?") + "|" + it.Tree.AttrOr("key", "?")
			got[gk] = append(got[gk], it.Tree.String())
			if _, ok := exp[gk]; !ok {
				extra++
			}
		}
		identical := extra == 0
		var missing, wrong []string
		for gk, want := range exp {
			rs := got[gk]
			if len(rs) == 1 && rs[0] == want {
				rep.CorrectGroups++
			} else {
				identical = false
				if len(rs) == 0 {
					missing = append(missing, gk)
				} else {
					wrong = append(wrong, fmt.Sprintf("%s(n=%d)", gk, len(rs)))
				}
			}
		}
		if identical {
			rep.ByteIdenticalSubs++
		} else {
			sort.Strings(missing)
			sort.Strings(wrong)
			rng := shareRange(j, cfg.Sources)
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
				"sub %d [%d,%d): missing=%v wrong=%v extra=%d", j, rng.start, rng.end, missing, wrong, extra))
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

// sortedKeys is a test helper shared with the experiment printer.
func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
