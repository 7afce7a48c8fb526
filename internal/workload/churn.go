package workload

import (
	"fmt"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/simnet"
	"p2pm/internal/stats"
	"p2pm/internal/xmltree"
)

// ChurnConfig parameterizes the churn scenario: a monitored service, a
// pool of relay workers hosting the subscription's forwarding operator,
// and a crash schedule that repeatedly kills the active relay while
// events keep flowing. The supervisor must detect each death and migrate
// the operator; the report measures what the churn cost. The elastic
// knobs (GrowFrom/JoinEvery) turn membership itself into workload: the
// pool starts small and new workers join at runtime through the
// membership protocol, with no pre-registration anywhere.
type ChurnConfig struct {
	Seed    int64
	Workers int // full relay worker pool (w0 ... wN-1)
	Events  int // total source events driven
	// CrashEvery crashes the active relay after every k driven events
	// (0 = no churn, the baseline).
	CrashEvery int
	// LeaveEvery makes the active relay host *gracefully leave* after
	// every k driven events (0 = never): System.LeavePeer announces the
	// departure, hands off DHT keys and migrates the relay immediately —
	// no suspicion window, no detection latency, no death declared. The
	// leaver rejoins through the membership protocol after MTTR. Leave
	// and rejoin events appear in the Timeline.
	LeaveEvery int
	// MTTR is the virtual downtime before a crashed worker returns and
	// rejoins the pool.
	MTTR time.Duration
	// Step is the virtual time between driven events.
	Step time.Duration
	// HeartbeatInterval / Suspicion configure the failure detector.
	HeartbeatInterval time.Duration
	Suspicion         time.Duration
	// Replay enables the lossless-failover layer: upstream replay
	// buffers, consumer cursors and operator checkpointing. Events
	// published during an outage window are then retransmitted after the
	// migration instead of lost.
	Replay bool
	// ReplayBuffer is the per-channel retention (items) when Replay is
	// on; 0 picks a default that covers the whole run.
	ReplayBuffer int
	// CheckpointInterval is the operator checkpoint cadence when Replay
	// is on; 0 picks a default of two heartbeat intervals.
	CheckpointInterval time.Duration
	// Detector selects the failure-detection mode: "home" (default —
	// PR 1's single heartbeat detector hosted at mon) or "gossip"
	// (SWIM-style decentralized detection with a quorum-confirmed
	// membership view; see docs/DETECTOR.md).
	Detector string
	// PartitionHomeAfter, when > 0, isolates the monitor peer ("mon" —
	// the home a heartbeat detector would live on) from the rest of
	// the network after that many driven events. This is the detector
	// survivability scenario: gossip detection keeps working, a home
	// detector goes blind and its silence-is-death rule kills the
	// healthy peers.
	PartitionHomeAfter int
	// GrowFrom, when in [2, Workers), starts the run with only that many
	// workers pre-registered; the remaining Workers-GrowFrom join at
	// runtime via System.JoinPeer (seeded at mgr) on the JoinEvery
	// cadence — the grow-from-k-to-n elastic scenario. 0 pre-registers
	// the whole pool (the classic static membership).
	GrowFrom int
	// JoinEvery admits one pending worker every N driven events. 0 with
	// GrowFrom set spreads the joins evenly across the run.
	JoinEvery int
	// Spread enables the DHT elasticity machinery: virtual-node tokens
	// (ownership rebalances incrementally on join/leave) plus
	// bounded-load placement (no peer serves more than ~2× the mean
	// checkpoint traffic). See docs/MEMBERSHIP.md.
	Spread bool
	// Pipelines deploys that many parallel relay pipelines (default 1).
	// Each has its own relay operator and named channel; the crash
	// schedule targets pipeline 0's relay. Many pipelines mean many
	// checkpoint keys — the workload the Spread measurement needs.
	Pipelines int
}

// spreadVirtualNodes / spreadLoadBound are the ring settings Spread
// turns on: enough tokens to fragment ownership at pool scale, and the
// classic 2× bounded-load factor.
const (
	spreadVirtualNodes = 32
	spreadLoadBound    = 2.0
)

// DefaultChurn returns a moderate churn scenario.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		Seed: 1, Workers: 4, Events: 60, CrashEvery: 15,
		MTTR: 10 * time.Second, Step: time.Second,
		HeartbeatInterval: time.Second, Suspicion: 2 * time.Second,
	}
}

// CrashEvent records one injected relay crash.
type CrashEvent struct {
	Victim string
	At     time.Duration
}

// JoinEvent records one runtime worker admission.
type JoinEvent struct {
	Peer string
	At   time.Duration
}

// LeaveEvent records one graceful departure.
type LeaveEvent struct {
	Peer string
	At   time.Duration
}

// ChurnReport summarizes one churn run.
type ChurnReport struct {
	Driven    int // events driven at the source
	Pipelines int // parallel pipelines each event traverses
	Received  int // results that reached the subscribers (all pipelines)
	Crashes   int // relay crashes injected
	Deaths    int // deaths the detector declared
	Repairs   int // successful operator migrations
	Joins     int // workers admitted at runtime
	Leaves    int // graceful departures injected
	// LeaveRepairs counts migrations the graceful-leave handoffs took
	// (they bypass the supervisor, so Repairs does not include them).
	LeaveRepairs int
	Replayed     uint64 // items retransmitted from replay buffers
	// CrashLog is the injected crash schedule, in injection order.
	CrashLog []CrashEvent
	// JoinLog is the runtime admission schedule, in join order.
	JoinLog []JoinEvent
	// LeaveLog is the graceful-departure schedule, in leave order.
	LeaveLog []LeaveEvent
	// Timeline interleaves the run's membership events (join, crash,
	// dead, recovered) in occurrence order with virtual timestamps —
	// the determinism artifact: same seed, same config ⇒ byte-identical
	// timelines.
	Timeline []string
	// DetectionLatency summarizes virtual crash→declared-dead time.
	DetectionLatency *stats.Summary
	Traffic          simnet.Totals
}

// Expected is the number of results a lossless run delivers: every
// driven event through every pipeline.
func (r *ChurnReport) Expected() int {
	p := r.Pipelines
	if p < 1 {
		p = 1
	}
	return r.Driven * p
}

// Completeness is the fraction of expected results that arrived.
func (r *ChurnReport) Completeness() float64 {
	if r.Expected() == 0 {
		return 1
	}
	return float64(r.Received) / float64(r.Expected())
}

// ChurnLab is one assembled churn scenario.
type ChurnLab struct {
	Sys   *peer.System
	Task  *peer.Task   // pipeline 0 (the crash-schedule target)
	Tasks []*peer.Task // all deployed pipelines
	Sup   *peer.Supervisor
	cfg   ChurnConfig

	sched *schedRunner
}

// SetupChurn builds the scenario: src.com hosts the monitored service Q,
// c.com calls it, the relay operator(s) start on the initial worker
// pool, the publisher runs at mgr, and a supervisor at mon watches
// everything. Non-worker peers are load-biased so failovers stay inside
// the worker pool. With GrowFrom set, only the initial workers exist at
// start — the rest of the pool arrives through the join protocol while
// events flow.
func SetupChurn(cfg ChurnConfig) (*ChurnLab, error) {
	if cfg.Workers < 2 {
		return nil, fmt.Errorf("workload: churn needs >= 2 workers (got %d)", cfg.Workers)
	}
	startWorkers := cfg.Workers
	if cfg.GrowFrom > 0 {
		if cfg.GrowFrom < 2 || cfg.GrowFrom > cfg.Workers {
			return nil, fmt.Errorf("workload: GrowFrom %d out of range [2, %d]", cfg.GrowFrom, cfg.Workers)
		}
		// The join schedule must complete within the run: a stranded
		// pending worker would silently skew every "full scale" claim
		// (and the steady-state load window would never open).
		if pending := cfg.Workers - cfg.GrowFrom; cfg.JoinEvery > 0 && pending*cfg.JoinEvery > cfg.Events {
			return nil, fmt.Errorf("workload: %d joins every %d events do not fit in %d events", pending, cfg.JoinEvery, cfg.Events)
		}
		startWorkers = cfg.GrowFrom
	}
	if cfg.Pipelines < 1 {
		cfg.Pipelines = 1
	}
	pc := peer.DefaultConfig()
	pc.Seed = cfg.Seed
	if cfg.Replay {
		pc.Replay.Buffer = cfg.ReplayBuffer
		if pc.Replay.Buffer <= 0 {
			pc.Replay.Buffer = 1024
		}
		pc.Replay.CheckpointInterval = cfg.CheckpointInterval
		if pc.Replay.CheckpointInterval <= 0 {
			pc.Replay.CheckpointInterval = 2 * cfg.HeartbeatInterval
		}
		if pc.Replay.CheckpointInterval <= 0 {
			pc.Replay.CheckpointInterval = 2 * time.Second
		}
	}
	if cfg.Spread {
		pc.DHT.VirtualNodes = spreadVirtualNodes
		pc.DHT.LoadBound = spreadLoadBound
		// Bounded-load reads pay successor-scan hops; the per-reader
		// location cache (invalidated on every membership change) shaves
		// them off the checkpoint-restore path.
		pc.DHT.ReadCache = true
	}
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	mgr, err := sys.AddPeer("mgr")
	if err != nil {
		return nil, err
	}
	src, err := sys.AddPeer("src.com")
	if err != nil {
		return nil, err
	}
	src.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	for _, name := range []string{"c.com", "mon"} {
		if _, err := sys.AddPeer(name); err != nil {
			return nil, err
		}
	}
	for i := 0; i < startWorkers; i++ {
		if _, err := sys.AddPeer(fmt.Sprintf("w%d", i)); err != nil {
			return nil, err
		}
	}
	for _, busy := range []string{"mgr", "src.com", "c.com", "mon"} {
		sys.Net.AddLoad(busy, 1000)
	}

	lab := &ChurnLab{Sys: sys, cfg: cfg, sched: newSchedRunner(sys)}
	// The partitioned home of the survivability scenario stays declared
	// dead for the rest of the run; its absence is deliberate and must
	// not block the schedule's one-outstanding-crash rule.
	lab.sched.ignoreSuspect = func(s string) bool {
		return cfg.PartitionHomeAfter > 0 && s == "mon"
	}
	for i := startWorkers; i < cfg.Workers; i++ {
		lab.sched.pending = append(lab.sched.pending, fmt.Sprintf("w%d", i))
	}
	for i := 0; i < cfg.Pipelines; i++ {
		channelID := "churned"
		if i > 0 {
			channelID = fmt.Sprintf("churned%d", i)
		}
		al := algebra.NewAlerter("inCOM", "ws-in", "src.com", "e", nil)
		relay := &algebra.Node{
			Op: algebra.OpUnion, Peer: fmt.Sprintf("w%d", i%startWorkers),
			Inputs: []*algebra.Node{al}, Schema: []string{"e"},
		}
		plan := &algebra.Node{
			Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{relay},
			Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channelID},
		}
		task, err := mgr.DeployPlan(plan)
		if err != nil {
			return nil, err
		}
		lab.Tasks = append(lab.Tasks, task)
	}
	lab.Task = lab.Tasks[0]
	switch cfg.Detector {
	case "", "home":
		lab.Sup = sys.StartSupervisor("mon", peer.DetectorOptions{
			Interval: cfg.HeartbeatInterval, Suspicion: cfg.Suspicion,
		})
	case "gossip":
		lab.Sup = sys.StartGossipSupervisor(peer.GossipOptions{
			Seed: cfg.Seed, ProbeInterval: cfg.HeartbeatInterval, Suspicion: cfg.Suspicion,
		})
	default:
		return nil, fmt.Errorf("workload: unknown detector mode %q (want home or gossip)", cfg.Detector)
	}
	lab.sched.attach(lab.Sup)
	return lab, nil
}

// RelayHost returns the peer currently hosting pipeline 0's relay
// operator (the crash-schedule target).
func (l *ChurnLab) RelayHost() string {
	host := ""
	l.Task.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpUnion {
			host = n.Peer
		}
	})
	return host
}

// resultCount sums settled results across every pipeline.
func (l *ChurnLab) resultCount() int {
	total := 0
	for _, t := range l.Tasks {
		total += t.Results().Len()
	}
	return total
}

// partitionHome isolates mon from every other current peer — including
// ones that joined after a previous isolation, so a runtime admission
// cannot quietly bridge the split.
func (l *ChurnLab) partitionHome() {
	rest := make([]string, 0, len(l.Sys.Peers()))
	for _, p := range l.Sys.Peers() {
		if p != "mon" {
			rest = append(rest, p)
		}
	}
	l.Sys.Net.Partition([]string{"mon"}, rest)
}

// Run drives the configured number of events while injecting the join,
// crash and (optionally) home-partition schedules, stops the tasks, and
// reports completeness, failover counts and detection latency. Events
// driven during an outage window (relay dead, death not yet detected)
// are genuinely lost — that loss, versus the churn rate, is the
// experiment's measurement.
func (l *ChurnLab) Run() (*ChurnReport, error) {
	cfg := l.cfg
	sys, client := l.Sys, l.Sys.Peer("c.com")
	rep := &ChurnReport{Pipelines: cfg.Pipelines, DetectionLatency: &stats.Summary{}}
	r := l.sched
	partitioned := false

	err := r.run(schedule{
		Events: cfg.Events, Step: cfg.Step, MTTR: cfg.MTTR,
		CrashEvery: cfg.CrashEvery, LeaveEvery: cfg.LeaveEvery, JoinEvery: cfg.JoinEvery,
		Drive: func(int) error {
			if _, err := client.Endpoint().Invoke("src.com", "Q", nil); err != nil {
				// Only the home-partition scenario may wreck the
				// deployment (the blind detector crashes the source
				// fabric); there the event counts as driven-and-lost —
				// that loss IS the measurement. Everywhere else a failed
				// Invoke is a broken setup and must surface, not read as
				// a completeness dip.
				if cfg.PartitionHomeAfter <= 0 {
					return err
				}
			}
			return nil
		},
		Victim: l.RelayHost,
		AfterStep: func(driven int, _ time.Duration) {
			if cfg.PartitionHomeAfter > 0 && driven == cfg.PartitionHomeAfter {
				l.partitionHome()
				partitioned = true
			}
		},
		OnJoin: func(_ string, _ time.Duration, left int) {
			if partitioned {
				// Joining mid-isolation must not bridge the split: the
				// newcomer lands on the majority side.
				l.partitionHome()
			}
			if left == 0 {
				// Growth complete: steady-state service-load measurements
				// (the X3 checkpoint-spread table) start here, excluding
				// deployment and growth traffic.
				sys.DB.ResetLoad()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	rep.Driven = r.driven
	rep.Crashes = r.crashes
	rep.Leaves = r.leaves
	rep.Joins = r.joins
	rep.LeaveRepairs = r.leaveRepairs
	rep.CrashLog = append([]CrashEvent(nil), r.crashLog...)
	rep.JoinLog = append([]JoinEvent(nil), r.joinLog...)
	rep.LeaveLog = append([]LeaveEvent(nil), r.leaveLog...)
	// Let outstanding detections finish so the run's cost is complete.
	// Deaths are matched against the injected crash schedule as a
	// multiset: a worker that joined, crashed, recovered and crashed
	// again counts once per injected crash, while deaths the supervisor
	// declares for other reasons — the partitioned home, a join-flap
	// false positive — are not injected crashes and must not satisfy
	// (or overshoot) the wait.
	injectedDeaths := func() int {
		quota := map[string]int{}
		for _, c := range rep.CrashLog {
			quota[c.Victim]++
		}
		n := 0
		for _, d := range l.Sup.Deaths() {
			if quota[d] > 0 {
				quota[d]--
				n++
			}
		}
		return n
	}
	for i := 0; i < 64 && injectedDeaths() < rep.Crashes; i++ {
		sys.Step(cfg.Step)
	}
	if cfg.Replay {
		// With replay on, every driven event is recoverable: keep
		// stepping (migrations replay outage windows, anti-entropy sweeps
		// refill link losses) until the last result lands. A run whose
		// substrate was destroyed (home-partition scenario) stops making
		// progress, so bail once the count stalls for longer than any
		// detection window.
		last, stalled := -1, 0
		for i := 0; i < 1000 && l.resultCount() < rep.Expected() && stalled < 50; i++ {
			sys.Step(cfg.Step)
			sys.Quiesce()
			if cur := l.resultCount(); cur == last {
				stalled++
			} else {
				last, stalled = cur, 0
			}
		}
	}
	for _, t := range l.Tasks {
		t.Stop()
	}
	rep.Received = 0
	for _, t := range l.Tasks {
		rep.Received += len(t.Results().Drain())
	}
	rep.Deaths = len(l.Sup.Deaths())
	rep.Replayed = sys.ReplayedItems()
	for _, ev := range l.Sup.Events() {
		if ev.Repaired() {
			rep.Repairs++
		}
	}
	// Detection latency pairs each injected crash with the earliest
	// not-yet-consumed repair event naming its victim at or after the
	// crash time. Consuming events matters once joins are in play: a
	// joined-then-crashed-then-recovered worker can be a victim twice,
	// and both crashes must pair with their own detection instead of
	// the first one double-counting. Deaths the supervisor declares for
	// other reasons (the partitioned home) never enter the sample.
	events := l.Sup.Events()
	used := make([]bool, len(events))
	for _, c := range rep.CrashLog {
		for i, ev := range events {
			if !used[i] && ev.From == c.Victim && ev.At >= c.At {
				used[i] = true
				rep.DetectionLatency.Add(float64(ev.At-c.At) / float64(time.Second))
				break
			}
		}
	}
	rep.Timeline = append([]string(nil), r.timeline...)
	rep.Traffic = sys.Net.Totals()
	return rep, nil
}
