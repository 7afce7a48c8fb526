package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"p2pm/internal/peer"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// The alerts shape: 16 monitored sources, 32 subscribers over 8
// predicates (4 subscriptions each, so reuse taps running streams),
// calls spread over 16 methods (half match nothing), 8 calls per source
// per virtual second.
const (
	alertSources   = 16
	alertSubs      = 32
	alertPreds     = 8
	alertMethods   = 16
	alertCallsEach = 8
	// alertHeapRound is the round after which the live heap is sampled.
	alertHeapRound = 200
)

// alertCall is one driven call. at is its Invoke's offset from the
// start of the run: a pointer-free record keeps the growing call log out
// of the garbage collector's marking work.
type alertCall struct {
	src, method int
	at          time.Duration
}

type alertsBench struct {
	cfg     setupConfig
	sys     *peer.System
	client  *soap.Endpoint
	tasks   []*peer.Task
	sup     *peer.Supervisor
	srcs    []string
	methods []string
	urls    []string
	subIDs  []string

	setupLayers metrics
}

func alertSubscription(inCOM string, j int) string {
	return fmt.Sprintf(`for $c in inCOM(%s)
where $c.callMethod = "M%d"
return <hit sub="%d" id="{$c.callId}" m="{$c.callMethod}" at="{$c.callee}"/>
by publish as channel "hits%d"`, inCOM, j%alertPreds, j, j)
}

func setupAlerts(cfg setupConfig) (bench, error) {
	pc := peer.DefaultConfig()
	pc.Seed = cfg.seed
	pc.Telemetry.Registry = cfg.reg
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	b := &alertsBench{cfg: cfg, sys: sys}
	echo := func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("ok"), nil }
	for m := 0; m < alertMethods; m++ {
		b.methods = append(b.methods, fmt.Sprintf("M%d", m))
	}
	var inCOM strings.Builder
	for i := 0; i < alertSources; i++ {
		name := fmt.Sprintf("s%02d", i)
		p, err := sys.AddPeer(name)
		if err != nil {
			return nil, err
		}
		for _, m := range b.methods {
			p.Endpoint().Register(m, echo, nil)
		}
		b.srcs = append(b.srcs, name)
		b.urls = append(b.urls, "http://"+name)
		fmt.Fprintf(&inCOM, "<p>%s</p>", name)
	}
	client, err := sys.AddPeer("client")
	if err != nil {
		return nil, err
	}
	b.client = client.Endpoint()
	var ct compileTimes
	var subMs []float64
	deployed := 0
	for j := 0; j < alertSubs; j++ {
		name := fmt.Sprintf("u%02d", j)
		sp, err := sys.AddPeer(name)
		if err != nil {
			return nil, err
		}
		text := alertSubscription(inCOM.String(), j)
		if cfg.tr != nil {
			if err := ct.measure(cfg.tr, text, name); err != nil {
				return nil, err
			}
		}
		cfg.tr.begin("peer.subscribe", -1)
		t0 := time.Now()
		task, err := sp.Subscribe(text)
		subMs = append(subMs, millis(time.Since(t0)))
		cfg.tr.end()
		if err != nil {
			return nil, fmt.Errorf("subscription %d: %w", j, err)
		}
		deployed += task.OperatorsDeployed()
		b.tasks = append(b.tasks, task)
		b.subIDs = append(b.subIDs, strconv.Itoa(j))
	}
	b.sup = sys.StartGossipSupervisor(peer.GossipOptions{Seed: cfg.seed})
	if cfg.tr != nil {
		ct.add(&b.setupLayers)
		b.setupLayers.addTimings("peer.subscribe_ms", "ms", subMs)
		b.setupLayers.add("reuse.ops_per_sub", "count", ratio(float64(deployed), alertSubs))
	}
	return b, nil
}

func (b *alertsBench) close() {
	for _, t := range b.tasks {
		t.Stop()
	}
}

// subMask is the set of subscriptions (bit j) a call of method m must
// reach.
func subMask(m int) uint32 {
	if m >= alertPreds {
		return 0
	}
	var mask uint32
	for j := m; j < alertSubs; j += alertPreds {
		mask |= 1 << j
	}
	return mask
}

func (b *alertsBench) run(d time.Duration) (*report, error) {
	rep := &report{}
	tr := b.cfg.tr
	traced := tr != nil
	rng := rand.New(rand.NewSource(b.cfg.seed))
	layers := newSysLayers(b.sys, b.cfg)
	calls := make([]alertCall, 0, 1<<16)
	seen := make([]uint32, 0, 1<<16)
	rep.deliver = make([]float64, 0, 1<<18)
	var invokeUs, waitUs []float64
	var items0 uint64
	for _, t := range b.tasks {
		items0 += t.ItemsProcessed()
	}
	g := newGuard(b.queues())
	defer g.stop()

	layers.start()
	rep.mem.start()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start)-rep.mem.paused < d; round++ {
		tr.begin("driver.round", int64(round))
		var need [alertPreds]int
		for s := 0; s < alertSources; s++ {
			for k := 0; k < alertCallsEach; k++ {
				m := rng.Intn(alertMethods)
				id := len(calls)
				tr.begin("soap.invoke", int64(id))
				at := time.Now()
				_, err := b.client.Invoke(b.srcs[s], b.methods[m], nil)
				if traced {
					invokeUs = append(invokeUs, micros(time.Since(at)))
				}
				tr.end()
				if err != nil {
					return nil, fmt.Errorf("call %d: %w", id, err)
				}
				calls = append(calls, alertCall{src: s, method: m, at: at.Sub(start)})
				seen = append(seen, 0)
				if m < alertPreds {
					need[m]++
				}
			}
		}
		for j, t := range b.tasks {
			q := t.Results()
			for k := 0; k < need[j%alertPreds]; k++ {
				tr.begin("operators.wait", -1)
				w0 := time.Now()
				it, ok := q.Pop()
				now := time.Now()
				if traced {
					waitUs = append(waitUs, micros(now.Sub(w0)))
				}
				if !ok {
					tr.end()
					break // the guard closed the queue: counted missing below
				}
				id := b.check(rep, j, it.Tree, calls, seen)
				tr.setEvent(int64(id))
				tr.end()
				if id >= 0 {
					rep.deliver = append(rep.deliver, micros(now.Sub(start)-calls[id].at))
				}
			}
		}
		g.kick()
		layers.step()
		tr.end()
		if round+1 == alertHeapRound {
			rep.mem.heap()
		}
	}
	rep.wall = time.Since(start) - rep.mem.paused
	rep.mem.stop()
	rep.events = len(calls)
	if g.tripped() {
		rep.fail("no result for %v: queues closed", stallLimit)
	}
	for i, c := range calls {
		want := subMask(c.method)
		rep.expected += bits.OnesCount32(want)
		rep.missing += bits.OnesCount32(want &^ seen[i])
	}
	if traced {
		ms := append(metrics(nil), b.setupLayers...)
		ms.addTimings("soap.invoke_us", "us", invokeUs)
		ms.addTimings("operators.wait_us", "us", waitUs)
		var items uint64
		for _, t := range b.tasks {
			items += t.ItemsProcessed()
		}
		ms.add("operators.items_per_event", "count", ratio(float64(items-items0), float64(rep.events)))
		layers.finish(&ms, rep.events, rep.wall, b.sup, func(string) bool { return true })
		rep.layers = ms
	}
	return rep, nil
}

func (b *alertsBench) queues() []*stream.Queue {
	var qs []*stream.Queue
	for _, t := range b.tasks {
		qs = append(qs, t.Results())
	}
	return qs
}

// check scores one hit popped by subscription j against the call it
// names and returns that call's index, or -1 for a wrong hit.
func (b *alertsBench) check(rep *report, j int, hit *xmltree.Node, calls []alertCall, seen []uint32) int {
	if hit == nil {
		rep.wrong++
		rep.fail("subscription %d: end of stream before its hits", j)
		return -1
	}
	n, err := strconv.Atoi(strings.TrimPrefix(hit.AttrOr("id", ""), "call-"))
	id := n - 1 // call ids count Invokes from 1
	if err != nil || id < 0 || id >= len(calls) {
		rep.wrong++
		rep.fail("subscription %d: hit %s names no driven call", j, hit)
		return -1
	}
	c := calls[id]
	bit := uint32(1) << j
	if hit.AttrOr("sub", "") != b.subIDs[j] || hit.AttrOr("m", "") != b.methods[c.method] ||
		hit.AttrOr("at", "") != b.urls[c.src] || subMask(c.method)&bit == 0 {
		rep.wrong++
		rep.fail("subscription %d: hit %s does not match call %d (%s at %s)", j, hit, id, b.methods[c.method], b.srcs[c.src])
		return -1
	}
	if seen[id]&bit != 0 {
		rep.dup++
		rep.fail("subscription %d: call %d delivered twice", j, id)
		return -1
	}
	seen[id] |= bit
	return id
}
