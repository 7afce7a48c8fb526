package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// The churn shape: 4 monitored sources feed 8 relay pipelines (a union
// on a worker, published at the pipeline's manager). A pool of 24
// workers, 4 of which join at runtime; pipeline 0's relay host crashes
// every 40 virtual seconds and recovers 10 s later; another relay host
// leaves gracefully every 40 s (offset 20 s) and rejoins 10 s later.
const (
	churnSources    = 4
	churnPipes      = 8
	churnPool       = 24
	churnLate       = 4
	churnJoinEvery  = 5 // rounds between the runtime joins
	churnCycle      = 40
	churnLeaveAt    = 20
	churnMTTR       = 10 * time.Second
	churnHeapRound  = 200
	churnDrainLimit = 64 // extra rounds allowed to deliver the last outage
)

type churnBench struct {
	cfg    setupConfig
	sys    *peer.System
	client *soap.Endpoint
	sup    *peer.Supervisor
	srcs   []string
	urls   []string
	tasks  []*peer.Task
	late   []string // workers still to join

	deathAt map[string]time.Duration
}

func setupChurn(cfg setupConfig) (bench, error) {
	pc := peer.DefaultConfig()
	pc.Seed = cfg.seed
	pc.Replay.Buffer = 1024
	pc.Replay.CheckpointInterval = 2 * time.Second
	pc.Telemetry.Registry = cfg.reg
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	b := &churnBench{cfg: cfg, sys: sys, deathAt: make(map[string]time.Duration)}
	echo := func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("ok"), nil }
	var busy []string
	for i := 0; i < churnSources; i++ {
		name := fmt.Sprintf("s%d", i)
		sp, err := sys.AddPeer(name)
		if err != nil {
			return nil, err
		}
		sp.Endpoint().Register("Q", echo, nil)
		b.srcs = append(b.srcs, name)
		b.urls = append(b.urls, "http://"+name)
		busy = append(busy, name)
	}
	client, err := sys.AddPeer("client")
	if err != nil {
		return nil, err
	}
	b.client = client.Endpoint()
	busy = append(busy, "client")
	var mgrs []*peer.Peer
	for p := 0; p < churnPipes; p++ {
		m, err := sys.AddPeer(fmt.Sprintf("m%d", p))
		if err != nil {
			return nil, err
		}
		mgrs = append(mgrs, m)
		busy = append(busy, m.Name())
	}
	for i := 0; i < churnPool; i++ {
		name := fmt.Sprintf("w%02d", i)
		if i >= churnPool-churnLate {
			b.late = append(b.late, name)
			continue
		}
		if _, err := sys.AddPeer(name); err != nil {
			return nil, err
		}
	}
	// Failover stays inside the worker pool.
	for _, name := range busy {
		sys.Net.AddLoad(name, 1000)
	}
	for p := 0; p < churnPipes; p++ {
		var ins []*algebra.Node
		for _, s := range b.srcs {
			ins = append(ins, algebra.NewAlerter("inCOM", "ws-in", s, "e", nil))
		}
		relay := &algebra.Node{Op: algebra.OpUnion, Peer: fmt.Sprintf("w%02d", p), Inputs: ins, Schema: []string{"e"}}
		plan := &algebra.Node{
			Op: algebra.OpPublish, Peer: mgrs[p].Name(), Inputs: []*algebra.Node{relay},
			Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: fmt.Sprintf("relay%d", p)},
		}
		cfg.tr.begin("peer.deploy", -1)
		task, err := mgrs[p].DeployPlan(plan)
		cfg.tr.end()
		if err != nil {
			return nil, fmt.Errorf("pipeline %d: %w", p, err)
		}
		b.tasks = append(b.tasks, task)
	}
	b.sup = sys.StartGossipSupervisor(peer.GossipOptions{
		Seed: cfg.seed, ProbeInterval: time.Second, Suspicion: 2 * time.Second,
	})
	b.sup.Detector().OnDeath(func(p string, at time.Duration) { b.deathAt[p] = at })
	return b, nil
}

func (b *churnBench) close() {
	for _, t := range b.tasks {
		t.Stop()
	}
}

// relayHost is the peer currently hosting pipeline p's relay.
func (b *churnBench) relayHost(p int) string {
	host := ""
	b.tasks[p].Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpUnion {
			host = n.Peer
		}
	})
	return host
}

// churnEvent is one driven call: at is its Invoke's offset from the
// start of the run (pointer-free, like alertCall), vat its virtual time.
type churnEvent struct {
	src int
	at  time.Duration
	vat time.Duration
}

// churnState is the driver's view of one run.
type churnState struct {
	events []churnEvent
	seen   []uint8 // per event, bit p: pipeline p delivered it
	popped [churnPipes]int
	// upAtStep records, per pipeline, whether its relay host was up
	// when the last Step ran. Hits lost while a host was down come back
	// through a Step (failover re-binding, or the anti-entropy sweep
	// after a recovery), so the driver blocks on a pipeline only when
	// its host is up now and was up at the last Step.
	upAtStep [churnPipes]bool
	crashed  map[string]bool // peers the driver crashed
	left     map[string]bool // peers the driver made leave
	recover  map[string]time.Duration
	rejoin   map[string]time.Duration

	crashAt                   map[string]time.Duration
	crashes, leaves, joins    int
	joinMs, leaveMs, repairMs []float64
	detectS                   []float64
	failovers, lastEvents     int
}

func (b *churnBench) run(d time.Duration) (*report, error) {
	rep := &report{}
	tr := b.cfg.tr
	traced := tr != nil
	rng := rand.New(rand.NewSource(b.cfg.seed))
	layers := newSysLayers(b.sys, b.cfg)
	st := &churnState{
		crashed: map[string]bool{}, left: map[string]bool{},
		recover: map[string]time.Duration{}, rejoin: map[string]time.Duration{},
		crashAt: map[string]time.Duration{},
	}
	var qs []*stream.Queue
	for _, t := range b.tasks {
		qs = append(qs, t.Results())
	}
	g := newGuard(qs)
	defer g.stop()
	var waitUs []float64

	for p := range st.upAtStep {
		st.upAtStep[p] = true
	}

	layers.start()
	rep.mem.start()
	start := time.Now()
	rounds := 0
	drain := 0
	for ; ; rounds++ {
		driving := rounds == 0 || time.Since(start)-rep.mem.paused < d
		if !driving && (st.delivered() || drain >= churnDrainLimit) {
			break
		}
		tr.begin("driver.round", int64(rounds))
		if err := b.membership(st, rounds, driving); err != nil {
			return nil, err
		}
		if driving {
			// One call per source, in a seeded order.
			for _, s := range rng.Perm(churnSources) {
				id := len(st.events)
				tr.begin("soap.invoke", int64(id))
				ev := churnEvent{src: s, at: time.Since(start), vat: b.sys.Net.Clock().Now()}
				_, err := b.client.Invoke(b.srcs[s], "Q", nil)
				tr.end()
				if err != nil {
					return nil, fmt.Errorf("call %d: %w", id, err)
				}
				st.events = append(st.events, ev)
				st.seen = append(st.seen, 0)
			}
		} else {
			drain++
		}
		for p, t := range b.tasks {
			q := t.Results()
			up := st.upAtStep[p] && b.sys.Net.Alive(b.relayHost(p))
			for st.popped[p] < len(st.events) {
				tr.begin("operators.wait", -1)
				w0 := time.Now()
				var it stream.Item
				var ok bool
				if up {
					it, ok = q.Pop()
				} else {
					it, ok = q.TryPop()
				}
				now := time.Now()
				if traced && up {
					waitUs = append(waitUs, micros(now.Sub(w0)))
				}
				if !ok {
					tr.end()
					break
				}
				id := b.check(rep, st, p, it.Tree)
				tr.setEvent(int64(id))
				tr.end()
				if id >= 0 {
					ev := st.events[id]
					rep.deliver = append(rep.deliver, micros(now.Sub(start)-ev.at))
					rep.deliverVirt = append(rep.deliverVirt, (b.sys.Net.Clock().Now() - ev.vat).Seconds())
				}
			}
		}
		g.kick()
		events0 := st.lastEvents
		stepD := layers.step()
		for p := range b.tasks {
			st.upAtStep[p] = b.sys.Net.Alive(b.relayHost(p))
		}
		if traced {
			if n := len(b.sup.Events()); n > events0 {
				st.repairMs = append(st.repairMs, millis(stepD))
				st.lastEvents = n
			}
		}
		tr.end()
		if rounds+1 == churnHeapRound {
			rep.mem.heap()
		}
	}
	rep.wall = time.Since(start) - rep.mem.paused
	rep.mem.stop()
	rep.events = len(st.events)
	if g.tripped() {
		rep.fail("no result for %v: queues closed", stallLimit)
	}
	const all = uint8(1<<churnPipes - 1)
	for i := range st.events {
		rep.expected += churnPipes
		rep.missing += bits.OnesCount8(all &^ st.seen[i])
	}
	if rep.missing > 0 {
		rep.fail("%d hits never arrived (%d crashes, %d leaves, %d joins)", rep.missing, st.crashes, st.leaves, st.joins)
	}
	_, vtail := summarize(rep.deliverVirt)
	rep.extra.addPctl("deliver_virtual_p99_s", "s", vtail)
	rep.extra.add("rounds", "count", float64(rounds))
	rep.extra.add("crashes", "count", float64(st.crashes))
	rep.extra.add("leaves", "count", float64(st.leaves))
	rep.extra.add("joins", "count", float64(st.joins))
	if traced {
		var ms metrics
		ms.addTimings("operators.wait_us", "us", waitUs)
		for name, at := range st.crashAt {
			if died, ok := b.deathAt[name]; ok && died >= at {
				st.detectS = append(st.detectS, (died - at).Seconds())
			}
		}
		for _, x := range []struct {
			name, unit string
			xs         []float64
		}{
			{"peer.repair_step_ms.p50", "ms", st.repairMs},
			{"peer.leave_ms.p50", "ms", st.leaveMs},
			{"peer.join_ms.p50", "ms", st.joinMs},
			{"peer.detect_virtual_s.p50", "s", st.detectS},
		} {
			med, _ := summarize(x.xs)
			ms.addPctl(x.name, x.unit, med)
		}
		ms.add("peer.failover_events", "count", float64(len(b.sup.Events())+st.failovers))
		layers.finish(&ms, rep.events, rep.wall, b.sup, func(p string) bool { return !st.crashed[p] && !st.left[p] })
		rep.layers = ms
	}
	return rep, nil
}

// delivered reports whether every pipeline has delivered every event.
func (st *churnState) delivered() bool {
	for _, n := range st.popped {
		if n < len(st.events) {
			return false
		}
	}
	return true
}

// membership applies the round's joins, recoveries, rejoins, crash and
// leave, in that order.
func (b *churnBench) membership(st *churnState, round int, driving bool) error {
	now := b.sys.Net.Clock().Now()
	tr := b.cfg.tr
	if round > 0 && round%churnJoinEvery == 0 && len(b.late) > 0 {
		name := b.late[0]
		b.late = b.late[1:]
		if err := b.join(st, name); err != nil {
			return err
		}
	}
	for _, name := range dueSorted(st.recover, now) {
		delete(st.recover, name)
		b.sys.Net.Recover(name) //nolint:errcheck // a known node
	}
	for _, name := range dueSorted(st.rejoin, now) {
		delete(st.rejoin, name)
		if err := b.join(st, name); err != nil {
			return err
		}
	}
	if !driving || round == 0 {
		return nil
	}
	healthy := len(b.sup.Detector().Suspects()) == 0
	switch round % churnCycle {
	case 0:
		victim := b.relayHost(0)
		if healthy && strings.HasPrefix(victim, "w") && b.sys.Net.Alive(victim) {
			tr.begin("peer.crash", -1)
			b.sys.Net.Crash(victim) //nolint:errcheck // a known node
			tr.end()
			st.crashes++
			st.crashed[victim] = true
			st.crashAt[victim] = now
			st.recover[victim] = now + churnMTTR
		}
	case churnLeaveAt:
		p := 1 + st.leaves%(churnPipes-1)
		leaver := b.relayHost(p)
		if healthy && len(st.rejoin) == 0 && strings.HasPrefix(leaver, "w") &&
			leaver != b.relayHost(0) && b.sys.Net.Alive(leaver) {
			tr.begin("peer.leave", -1)
			t0 := time.Now()
			evs, err := b.sys.LeavePeer(leaver)
			st.leaveMs = append(st.leaveMs, millis(time.Since(t0)))
			tr.end()
			if err != nil {
				return fmt.Errorf("%s leaving: %w", leaver, err)
			}
			st.failovers += len(evs)
			st.leaves++
			st.left[leaver] = true
			st.rejoin[leaver] = now + churnMTTR
		}
	}
	return nil
}

func (b *churnBench) join(st *churnState, name string) error {
	b.cfg.tr.begin("peer.join", -1)
	t0 := time.Now()
	_, err := b.sys.JoinPeer(name, "m0")
	st.joinMs = append(st.joinMs, millis(time.Since(t0)))
	b.cfg.tr.end()
	if err != nil {
		return fmt.Errorf("admitting %s: %w", name, err)
	}
	st.joins++
	return nil
}

// dueSorted returns the names whose deadline has passed, sorted, so
// same-round actions happen in a fixed order.
func dueSorted(m map[string]time.Duration, now time.Duration) []string {
	var due []string
	for name, at := range m {
		if now >= at {
			due = append(due, name)
		}
	}
	sort.Strings(due)
	return due
}

// check scores one hit popped from pipeline p and returns its event
// index, or -1 for a wrong or duplicated hit.
func (b *churnBench) check(rep *report, st *churnState, p int, hit *xmltree.Node) int {
	if hit == nil {
		rep.wrong++
		rep.fail("pipeline %d: end of stream before its hits", p)
		return -1
	}
	n, err := strconv.Atoi(strings.TrimPrefix(hit.AttrOr("callId", ""), "call-"))
	id := n - 1
	if err != nil || id < 0 || id >= len(st.events) || hit.AttrOr("callee", "") != b.urls[st.events[id].src] {
		rep.wrong++
		rep.fail("pipeline %d: hit %s matches no driven call", p, hit)
		return -1
	}
	bit := uint8(1) << p
	if st.seen[id]&bit != 0 {
		rep.dup++
		rep.fail("pipeline %d: call %d delivered twice", p, id)
		return -1
	}
	st.seen[id] |= bit
	st.popped[p]++
	return id
}
