// AdaptLab: the self-adaptive runtime under a diurnal + hotspot
// profile. One windowed group-by-count aggregation runs over skewed
// sources while the substrate degrades on a schedule: a worker hosting
// the hot interior turns slow-but-alive twice (the diurnal phases —
// inflated latency and message loss on its links, every message still
// eventually arriving), and a second worker flaps (true crash, recover,
// crash again). The static run takes the classic damage: the gossip
// detector false-kills the slow peer and failover churns state for
// nothing, the hot interior stays hot, the flapper re-hosts state
// between its crashes. The adaptive run turns on the PR 9 control
// loops — Lifeguard health scaling in the detector, the load-driven
// re-chunking controller, and an adapt.Loop fed by a P2PML subscription
// over the detector's own telemetry that quarantines the flapper and
// raises DHT replication under death bursts — and must kill nobody
// falsely, split the hot interior at runtime, and still publish records
// byte-identical to the undisturbed flat deployment.
package workload

import (
	"fmt"
	"sort"
	"time"

	"p2pm/internal/adapt"
	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/xmltree"
)

// AdaptConfig parameterizes the self-adaptation scenario.
type AdaptConfig struct {
	// Mode selects the deployment: "flat" (undisturbed ground truth —
	// flat Group, no faults, no detector), "static" (tree + faults,
	// controllers off) or "adaptive" (tree + faults, controllers on).
	Mode    string
	Seed    int64
	Sources int // monitored sources s0.., leaves of the tree
	Workers int // merge-host pool w0..
	Events  int
	Step    time.Duration
	Window  time.Duration
	Degree  int // aggregation-tree fan-in bound

	// HotSpan: events i with i%HotSpan != HotSpan-1 hit the hot half of
	// the sources (the first Degree leaves — one interior's subtree).
	HotSpan int

	// SlowDelay/SlowDrop degrade every link of the slow worker during
	// the two diurnal phases; the worker stays alive throughout.
	SlowDelay time.Duration
	SlowDrop  float64

	// Detector aggressiveness (the static trap). HealthMax caps the
	// adaptive multiplier so a true crash is still confirmed within the
	// flapper's downtime even at peak health.
	ProbeTimeout time.Duration
	Suspicion    time.Duration
	HealthMax    int

	// Controller knobs (adaptive mode).
	SplitRatio        float64
	SplitObservations int
}

// DefaultAdapt returns the scenario the X6 experiment runs.
func DefaultAdapt() AdaptConfig {
	return AdaptConfig{
		Mode:              "adaptive",
		Seed:              9,
		Sources:           8,
		Workers:           3,
		Events:            96,
		Step:              time.Second,
		Window:            16 * time.Second,
		Degree:            4,
		HotSpan:           6,
		SlowDelay:         400 * time.Millisecond,
		SlowDrop:          0.3,
		ProbeTimeout:      500 * time.Millisecond,
		Suspicion:         2 * time.Second,
		HealthMax:         3,
		SplitRatio:        1.5,
		SplitObservations: 3,
	}
}

// AdaptReport is the outcome of one AdaptLab run.
type AdaptReport struct {
	Mode    string
	Driven  int
	Records []string

	FalseKills int      // confirmed deaths of peers that were alive
	TrueKills  int      // confirmed deaths of actually crashed peers
	Kills      []string // every confirmed death: peer, virtual time, crashed?
	Repairs    int      // failover repair actions
	Replayed   uint64

	Splits      int
	SplitEvents []peer.SplitEvent
	// PostMax/PostMean: per-first-level-interior ingest over the final
	// quarter of the run (after any splits settled), max and mean.
	PostMax  uint64
	PostMean float64

	HealthPeak  int      // highest Lifeguard health score sampled
	Quarantines int      // adapt.Loop engage events on the flapper rule
	ReplRaises  int      // adapt.Loop engage events on the dht rule
	Quarantined []string // quarantine set at teardown

	SlowPeer string
	Flapper  string
}

// PostRatio is the post-split load skew (max over mean; 0 when no
// interior ingested anything in the final quarter).
func (r *AdaptReport) PostRatio() float64 {
	if r.PostMean == 0 {
		return 0
	}
	return float64(r.PostMax) / r.PostMean
}

// Completeness compares records against a baseline run's: the matched
// fraction of the baseline multiset.
func (r *AdaptReport) Completeness(baseline []string) float64 {
	if len(baseline) == 0 {
		return 0
	}
	have := map[string]int{}
	for _, rec := range r.Records {
		have[rec]++
	}
	matched := 0
	for _, rec := range baseline {
		if have[rec] > 0 {
			have[rec]--
			matched++
		}
	}
	return float64(matched) / float64(len(baseline))
}

// Identical reports byte-identity with a baseline record set (both
// sides sorted).
func (r *AdaptReport) Identical(baseline []string) bool {
	if len(r.Records) != len(baseline) {
		return false
	}
	for i := range baseline {
		if r.Records[i] != baseline[i] {
			return false
		}
	}
	return true
}

// AdaptLab is one assembled run of the scenario.
type AdaptLab struct {
	Sys  *peer.System
	Task *peer.Task
	cfg  AdaptConfig

	det     *peer.GossipDetector
	sup     *peer.Supervisor
	loop    *adapt.Loop
	rep     *AdaptReport
	crashed map[string]bool
}

// SetupAdapt builds the deployment for one mode.
func SetupAdapt(cfg AdaptConfig) (*AdaptLab, error) {
	switch cfg.Mode {
	case "flat", "static", "adaptive":
	default:
		return nil, fmt.Errorf("workload: unknown adapt mode %q (want flat, static or adaptive)", cfg.Mode)
	}
	if cfg.Sources < cfg.Degree || cfg.Degree < 4 {
		return nil, fmt.Errorf("workload: adapt needs Degree >= 4 and Sources >= Degree (got %d/%d)", cfg.Sources, cfg.Degree)
	}
	if cfg.Workers < 2 {
		return nil, fmt.Errorf("workload: adapt needs >= 2 workers for a flapper distinct from the slow peer")
	}

	pc := peer.DefaultConfig()
	pc.Seed = cfg.Seed
	if cfg.Mode != "flat" {
		pc.Agg.Degree = cfg.Degree
		pc.Replay.Buffer = 4096
		pc.Replay.CheckpointInterval = 2 * cfg.Step
		pc.Gossip = peer.GossipConfig{
			ProbeInterval: cfg.Step,
			ProbeTimeout:  cfg.ProbeTimeout,
			Suspicion:     cfg.Suspicion,
			Adaptive:      cfg.Mode == "adaptive",
			HealthMax:     cfg.HealthMax,
		}
	}
	if cfg.Mode == "adaptive" {
		pc.Agg.SplitRatio = cfg.SplitRatio
		pc.Agg.SplitObservations = cfg.SplitObservations
		pc.Agg.SplitMinFanIn = 4
		pc.Agg.SplitCooldown = 10 * cfg.Step
	}
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	mgr, err := sys.AddPeer("mgr")
	if err != nil {
		return nil, err
	}
	if _, err := sys.AddPeer("client"); err != nil {
		return nil, err
	}
	var branches []*algebra.Node
	for i := 0; i < cfg.Sources; i++ {
		name := fmt.Sprintf("s%d", i)
		sp, err := sys.AddPeer(name)
		if err != nil {
			return nil, err
		}
		sp.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", name, "e", nil))
	}
	for i := 0; i < cfg.Workers; i++ {
		if _, err := sys.AddPeer(fmt.Sprintf("w%d", i)); err != nil {
			return nil, err
		}
	}
	sys.SetAggHosts(func(name string) bool { return name[0] == 'w' })
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union},
		Schema: []string{"e"}, Group: &algebra.GroupSpec{KeyAttr: "callee", Window: fmt.Sprint(cfg.Window)},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "adapt"},
	}
	task, err := mgr.DeployPlan(plan)
	if err != nil {
		return nil, err
	}
	lab := &AdaptLab{
		Sys: sys, Task: task, cfg: cfg,
		rep:     &AdaptReport{Mode: cfg.Mode},
		crashed: map[string]bool{},
	}

	if cfg.Mode == "flat" {
		return lab, nil
	}

	// The slow peer hosts the hot interior (skewed drive lands there);
	// the flapper is a different worker.
	hot := lab.firstLevelInteriors()
	if len(hot) < 2 {
		return nil, fmt.Errorf("workload: tree has %d first-level interiors, need >= 2", len(hot))
	}
	lab.rep.SlowPeer = hot[0].Peer
	// Prefer a flapper that hosts real state (the other first-level
	// interior) so its crashes exercise failover, not just detection.
	if p := hot[1].Peer; p != lab.rep.SlowPeer {
		lab.rep.Flapper = p
	} else {
		for i := cfg.Workers - 1; i >= 0; i-- {
			if w := fmt.Sprintf("w%d", i); w != lab.rep.SlowPeer {
				lab.rep.Flapper = w
				break
			}
		}
	}

	lab.sup = sys.StartGossipSupervisor(peer.GossipOptions{Seed: cfg.Seed})
	lab.det, _ = lab.sup.Detector().(*peer.GossipDetector)
	lab.sup.Detector().OnDeath(func(p string, at time.Duration) {
		if lab.crashed[p] {
			lab.rep.TrueKills++
		} else {
			lab.rep.FalseKills++
		}
		lab.rep.Kills = append(lab.rep.Kills, fmt.Sprintf("%s@%s crashed=%v", p, at, lab.crashed[p]))
	})

	if cfg.Mode == "adaptive" {
		// The loop's input is an ordinary P2PML subscription over the
		// detector's own telemetry — the monitor monitoring itself.
		adapt.Sysmon(lab.sup.Detector(), mgr)
		sysTask, err := mgr.Subscribe(adapt.SysmonQuery("mgr"))
		if err != nil {
			return nil, fmt.Errorf("workload: sysmon subscription: %w", err)
		}
		tun := sys.Tuning()
		// Hysteresis windows scale with the schedule: the flapper's two
		// crashes are Events/4 periods apart, so half the run must count
		// as one burst, and quiet must outlast the run (quarantine holds
		// to teardown).
		within := time.Duration(cfg.Events) * cfg.Step / 2
		quiet := 2 * time.Duration(cfg.Events) * cfg.Step
		lab.loop = adapt.NewLoop()
		lab.loop.MustAdd(adapt.QuarantineFlapper(tun, 2, within, quiet))
		lab.loop.MustAdd(adapt.RaiseReplication(tun, pc.DHT.Replication, pc.DHT.Replication+1, 2, within, quiet))
		adapt.Attach(sys, sysTask, lab.loop)
	}
	return lab, nil
}

// firstLevelInteriors lists the key-routed interiors whose inputs are
// all PartialAgg leaves — the nodes whose gauges move mid-run.
func (l *AdaptLab) firstLevelInteriors() []*algebra.Node {
	var out []*algebra.Node
	l.Task.Plan.Walk(func(n *algebra.Node) {
		if n.Op != algebra.OpMergeAgg || n.AggKey == "" {
			return
		}
		for _, in := range n.Inputs {
			if in.Op != algebra.OpPartialAgg {
				return
			}
		}
		out = append(out, n)
	})
	return out
}

// target picks event i's source under the hotspot profile.
func (l *AdaptLab) target(i int) string {
	half := l.cfg.Degree
	if l.cfg.HotSpan > 1 && i%l.cfg.HotSpan == l.cfg.HotSpan-1 {
		return fmt.Sprintf("s%d", half+i%(l.cfg.Sources-half))
	}
	return fmt.Sprintf("s%d", i%half)
}

// setSlow degrades or restores every link of the slow peer.
func (l *AdaptLab) setSlow(on bool) {
	delay, drop := time.Duration(0), 0.0
	if on {
		delay, drop = l.cfg.SlowDelay, l.cfg.SlowDrop
	}
	for _, other := range l.Sys.Net.Nodes() {
		if other == l.rep.SlowPeer {
			continue
		}
		l.Sys.Net.SetExtraDelay(other, l.rep.SlowPeer, delay)
		l.Sys.Net.SetExtraDelay(l.rep.SlowPeer, other, delay)
		l.Sys.Net.SetDrop(other, l.rep.SlowPeer, drop)
		l.Sys.Net.SetDrop(l.rep.SlowPeer, other, drop)
	}
}

// Run drives the schedule and returns the report.
func (l *AdaptLab) Run() (*AdaptReport, error) {
	cfg, sys, rep := l.cfg, l.Sys, l.rep
	client := sys.Peer("client")
	faults := cfg.Mode != "flat"

	// The diurnal phases: two slow windows for the hot-interior host.
	phase := cfg.Events / 6
	slowSpans := [][2]int{{phase, 3 * phase}, {4 * phase, 5 * phase}}
	// The flapper's two crash/recover cycles.
	flapDown := map[int]bool{}
	flapUp := map[int]bool{}
	// Downtime must outlast the widest adaptive suspicion window
	// ((1+HealthMax) x Suspicion) so a real crash is confirmed while the
	// peer is actually down in both modes.
	for _, start := range []int{cfg.Events / 4, cfg.Events / 2} {
		flapDown[start] = true
		flapUp[start+12] = true
	}
	snapshotAt := 3 * cfg.Events / 4
	var snap map[string]uint64

	for i := 0; i < cfg.Events; i++ {
		if faults {
			for _, span := range slowSpans {
				if i == span[0] {
					l.setSlow(true)
				}
				if i == span[1] {
					l.setSlow(false)
				}
			}
			if flapDown[i] {
				sys.Net.Crash(rep.Flapper)
				l.crashed[rep.Flapper] = true
			}
			if flapUp[i] {
				sys.Net.Recover(rep.Flapper)
				l.crashed[rep.Flapper] = false
			}
		}
		if _, err := client.Endpoint().Invoke(l.target(i), "Q", nil); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		sys.Step(cfg.Step)
		rep.Driven++
		if faults && l.det != nil {
			for _, n := range sys.Net.Nodes() {
				if h := l.det.HealthOf(n); h > rep.HealthPeak {
					rep.HealthPeak = h
				}
			}
		}
		if faults && i == snapshotAt {
			sys.Quiesce()
			snap = l.interiorGauges()
		}
	}

	// Drain: replay, anti-entropy, late windows.
	for i := 0; i < 8; i++ {
		sys.Step(cfg.Step)
	}
	sys.Quiesce()

	if faults {
		final := l.interiorGauges()
		var total uint64
		n := 0
		for key, items := range final {
			delta := items - snap[key]
			if items < snap[key] {
				// A failover re-deploy reset this interior's gauge; count
				// what the fresh instance ingested.
				delta = items
			}
			if delta > rep.PostMax {
				rep.PostMax = delta
			}
			total += delta
			n++
		}
		if n > 0 {
			rep.PostMean = float64(total) / float64(n)
		}
		rep.SplitEvents = sys.SplitEvents()
		rep.Splits = len(rep.SplitEvents)
		rep.Replayed = sys.ReplayedItems()
		for _, ev := range l.sup.Events() {
			if ev.Repaired() {
				rep.Repairs++
			}
		}
		rep.Quarantined = sys.Tuning().Quarantined()
		if l.loop != nil {
			for _, ev := range l.loop.Events() {
				if !ev.Engaged {
					continue
				}
				switch ev.Rule {
				case "quarantine-flapper":
					rep.Quarantines++
				case "raise-replication":
					rep.ReplRaises++
				}
			}
		}
	}

	l.Task.Stop()
	for _, it := range l.Task.Results().Drain() {
		rep.Records = append(rep.Records, it.Tree.String())
	}
	sort.Strings(rep.Records)
	return rep, nil
}

// interiorGauges snapshots ItemsIn per first-level interior key.
func (l *AdaptLab) interiorGauges() map[string]uint64 {
	keys := map[string]bool{}
	for _, n := range l.firstLevelInteriors() {
		keys[n.AggKey] = true
	}
	out := map[string]uint64{}
	for _, e := range l.Sys.AggLoad() {
		if e.Task == l.Task.ID && keys[e.Key] {
			out[e.Key] += e.Items
		}
	}
	return out
}
