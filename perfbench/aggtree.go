package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/peer"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// The agg-256 shape: 256 monitored sources, a 16-worker merge pool, a
// windowed count by callee over 8 s tumbling windows deployed as a
// degree-4 DHT-placed tree, gossip detection, replay with checkpoints
// every 2 virtual seconds.
const (
	aggSources = 256
	aggWorkers = 16
	aggDegree  = 4
	aggWindow  = 8 * time.Second
	// aggHeapRound is the round after which the live heap is sampled.
	aggHeapRound = 8
)

type aggBench struct {
	cfg    setupConfig
	sys    *peer.System
	client *soap.Endpoint
	task   *peer.Task
	sup    *peer.Supervisor
	srcs   []string
	// stopped is set once the run stopped the task itself.
	stopped  bool
	deployMs float64
}

func setupAgg(cfg setupConfig) (bench, error) {
	pc := peer.DefaultConfig()
	pc.Seed = cfg.seed
	pc.Agg.Degree = aggDegree
	pc.Replay.Buffer = 4096
	pc.Replay.CheckpointInterval = 2 * time.Second
	pc.Telemetry.Registry = cfg.reg
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	b := &aggBench{cfg: cfg, sys: sys}
	mgr, err := sys.AddPeer("mgr")
	if err != nil {
		return nil, err
	}
	client, err := sys.AddPeer("client")
	if err != nil {
		return nil, err
	}
	b.client = client.Endpoint()
	echo := func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("ok"), nil }
	var branches []*algebra.Node
	for i := 0; i < aggSources; i++ {
		name := fmt.Sprintf("s%03d", i)
		sp, err := sys.AddPeer(name)
		if err != nil {
			return nil, err
		}
		sp.Endpoint().Register("Q", echo, nil)
		b.srcs = append(b.srcs, name)
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", name, "e", nil))
		// Sources stay off failover placement.
		sys.Net.AddLoad(name, 1000)
	}
	for i := 0; i < aggWorkers; i++ {
		if _, err := sys.AddPeer(fmt.Sprintf("w%02d", i)); err != nil {
			return nil, err
		}
	}
	sys.Net.AddLoad("mgr", 1000)
	sys.Net.AddLoad("client", 1000)
	// Interiors live on the worker pool, off w00 (the root's host).
	sys.SetAggHosts(func(name string) bool { return strings.HasPrefix(name, "w") && name != "w00" })
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w00", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: "w00", Inputs: []*algebra.Node{union}, Schema: []string{"e"},
		Group: &algebra.GroupSpec{KeyAttr: "callee", Window: aggWindow.String()},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "aggstats"},
	}
	cfg.tr.begin("peer.deploy", -1)
	t0 := time.Now()
	b.task, err = mgr.DeployPlan(plan)
	b.deployMs = millis(time.Since(t0))
	cfg.tr.end()
	if err != nil {
		return nil, err
	}
	b.sup = sys.StartGossipSupervisor(peer.GossipOptions{
		Seed: cfg.seed, ProbeInterval: time.Second, Suspicion: 2 * time.Second,
	})
	return b, nil
}

func (b *aggBench) close() {
	if !b.stopped {
		b.task.Stop()
	}
}

func (b *aggBench) run(d time.Duration) (*report, error) {
	rep := &report{}
	tr := b.cfg.tr
	rng := rand.New(rand.NewSource(b.cfg.seed))
	layers := newSysLayers(b.sys, b.cfg)
	count, _ := monoid.Lookup("")
	// expect replays the drive schedule through the deployed monoid:
	// one state per (window, callee), as AggLab.expected builds it.
	expect := make(map[string]monoid.State)
	var order []string
	q := b.task.Results()
	g := newGuard([]*stream.Queue{q})
	defer g.stop()
	got := make(map[string][]string)
	var early int

	layers.start()
	rep.mem.start()
	start := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(start)-rep.mem.paused < d; rounds++ {
		tr.begin("driver.round", int64(rounds))
		w := int64(b.sys.Net.Clock().Now() / aggWindow)
		for _, i := range rng.Perm(aggSources) {
			tr.begin("soap.invoke", int64(rep.events))
			_, err := b.client.Invoke(b.srcs[i], "Q", nil)
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("call %d: %w", rep.events, err)
			}
			rep.events++
			gk := strconv.FormatInt(w, 10) + "|http://" + b.srcs[i]
			st := expect[gk]
			if st == nil {
				st = count.Zero()
				expect[gk] = st
				order = append(order, gk)
			}
			st.Absorb("") //nolint:errcheck // count accepts every event
		}
		layers.step()
		g.kick()
		// Trees emit at flush; anything earlier is collected here.
		for it, ok := q.TryPop(); ok; it, ok = q.TryPop() {
			early++
			b.record(got, it.Tree)
		}
		tr.end()
		if rounds+1 == aggHeapRound {
			rep.mem.heap()
		}
	}
	rep.mem.heap()
	var layerMs metrics
	if b.cfg.reg != nil {
		b.ingestLayers(&layerMs)
	}
	tr.begin("peer.task_stop", -1)
	stop := time.Now()
	b.task.Stop()
	b.stopped = true
	tr.end()
	want := len(expect) - early
	for popped := 0; popped < want; popped++ {
		tr.begin("operators.wait", -1)
		it, ok := q.Pop()
		now := time.Now()
		tr.end()
		if !ok || it.EOS() {
			break
		}
		rep.deliver = append(rep.deliver, micros(now.Sub(stop)))
		b.record(got, it.Tree)
		g.kick()
	}
	end := time.Now()
	rep.wall = end.Sub(start) - rep.mem.paused
	stopMs := millis(end.Sub(stop))
	rep.mem.stop()
	if g.tripped() {
		rep.fail("no record for %v: queue closed", stallLimit)
	}
	// Any record beyond the expected ones is already in the queue.
	for it, ok := q.TryPop(); ok; it, ok = q.TryPop() {
		if !it.EOS() {
			b.record(got, it.Tree)
		}
	}
	rep.expected = len(expect)
	for _, gk := range order {
		n := xmltree.Elem("group")
		win, key, _ := strings.Cut(gk, "|")
		n.SetAttr("key", key)
		expect[gk].Final(func(a, v string) { n.SetAttr(a, v) })
		n.SetAttr("window", win)
		recs := got[gk]
		delete(got, gk)
		switch {
		case len(recs) == 0:
			rep.missing++
			rep.fail("group %s: no record", gk)
		case recs[0] != n.String():
			rep.wrong++
			rep.fail("group %s: got %s, want %s", gk, recs[0], n)
		}
		if len(recs) > 1 {
			rep.dup += len(recs) - 1
			rep.fail("group %s: %d records", gk, len(recs))
		}
	}
	for gk, recs := range got {
		rep.wrong += len(recs)
		rep.fail("group %s: not in the drive schedule", gk)
	}
	rep.extra.add("rounds", "count", float64(rounds))
	rep.extra.add("records_before_stop", "count", float64(early))
	if b.cfg.reg != nil {
		ms := append(metrics(nil), layerMs...)
		ms.add("peer.deploy_ms", "ms", b.deployMs)
		ms.add("aggtree.stop_ms", "ms", stopMs)
		layers.finish(&ms, rep.events, rep.wall, b.sup, func(string) bool { return true })
		rep.layers = ms
	}
	return rep, nil
}

// record files one emitted record under its (window, key) group.
func (b *aggBench) record(got map[string][]string, rec *xmltree.Node) {
	if rec == nil || rec.Label != "group" {
		return
	}
	gk := rec.AttrOr("window", "?") + "|" + rec.AttrOr("key", "?")
	got[gk] = append(got[gk], rec.String())
}

// ingestLayers reads the tree's ingest skew before the task stops: the
// per-host ingest over every candidate host (System.AggLoad) and the
// registry's hottest-interior gauge.
func (b *aggBench) ingestLayers(ms *metrics) {
	byPeer := make(map[string]uint64)
	for _, e := range b.sys.AggLoad() {
		if e.Task == b.task.ID {
			byPeer[e.Peer] += e.Items
		}
	}
	var max, total uint64
	hosts := 0
	for _, name := range b.sys.Peers() {
		if !strings.HasPrefix(name, "s") && !strings.HasPrefix(name, "w") {
			continue
		}
		v := byPeer[name]
		total += v
		if v > max {
			max = v
		}
		hosts++
	}
	ms.add("aggtree.ingest_max_over_mean", "ratio", ratio(float64(max), float64(total)/float64(hosts)))
	if m, ok := b.cfg.reg.Snapshot().Get("agg_interior_ingest_max"); ok {
		ms.add("agg.interior_ingest_max", "count", float64(m.Value))
	}
}
