package peer

import (
	"fmt"
	"sync/atomic"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/operators"
	"p2pm/internal/p2pml"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// deploy turns an optimized (and possibly reuse-rewritten) plan into
// running operators. Every operator publishes its output as a channel at
// its peer — exactly the paper's deployment, where even intermediate
// results (the X, Y channels of Figure 4) are published so other tasks
// can reuse them — and consumes its inputs by subscribing to its
// children's channels, across the simulated network when peers differ.
func (p *Peer) deploy(task *Task) error {
	plan := task.Plan
	// Resolve the "local" placeholder (delegated local tasks, Section
	// 3.4) to the managing peer.
	plan.Walk(func(n *algebra.Node) {
		if n.Peer == "local" {
			n.Peer = p.name
		}
		if n.Op == algebra.OpAlerter && n.Alerter.Peer == "local" {
			n.Alerter.Peer = p.name
		}
	})
	// Tree-vs-flat aggregation decision: with AggDegree set, wide
	// windowed aggregations decompose into DHT-routed partial/merge
	// trees before a single channel is allocated. The task's plan IS the
	// rewritten plan — failover and checkpointing see the tree.
	if deg := p.sys.aggDegree(); deg > 1 {
		plan, _ = aggtree.Rewrite(plan, task.ID, aggtree.Config{Degree: deg, Place: p.sys.newAggPlacer()})
		task.Plan = plan
	}

	refs, err := reuse.PublishPlan(p.sys.DB, plan, p.sys.nextStreamID)
	if err != nil {
		return err
	}
	task.refs = refs
	task.origRefs = make(map[*algebra.Node]stream.Ref, len(refs))
	for n, ref := range refs {
		task.origRefs[n] = ref
	}
	task.procs = make(map[*algebra.Node]*procInstance)

	var build func(n *algebra.Node) (*stream.Channel, error)
	build = func(n *algebra.Node) (*stream.Channel, error) {
		switch n.Op {
		case algebra.OpChannelIn:
			ch, ok := p.sys.Channel(n.Channel)
			if !ok {
				return nil, fmt.Errorf("peer: channel %s not found (reuse of a stopped task?)", n.Channel)
			}
			return ch, nil
		case algebra.OpPublish:
			child, err := build(n.Inputs[0])
			if err != nil {
				return nil, err
			}
			b := p.subscribeInput(task, n, n.Inputs[0], child, n.Peer)
			return p.deployPublisher(task, n, b.queue)
		}
		out := p.sys.allocChannel(task, n.Peer, refs[n].StreamID)

		switch n.Op {
		case algebra.OpAlerter:
			if err := p.deployAlerter(task, n, out); err != nil {
				return nil, err
			}
		case algebra.OpDynAlerter:
			driver, err := build(n.Inputs[0])
			if err != nil {
				return nil, err
			}
			b := p.subscribeInput(task, n, n.Inputs[0], driver, n.Peer)
			p.runDynAlerter(task, n, b.queue, out)
		default:
			queues := make([]*stream.Queue, len(n.Inputs))
			for i, in := range n.Inputs {
				child, err := build(in)
				if err != nil {
					return nil, err
				}
				queues[i] = p.subscribeInput(task, n, in, child, n.Peer).queue
			}
			proc, err := p.makeProc(n)
			if err != nil {
				return nil, err
			}
			h := p.sys.run(proc, queues, operators.ChannelPublish(out))
			task.handles = append(task.handles, h)
			task.procs[n] = &procInstance{proc: proc, handle: h}
		}
		return out, nil
	}
	resultCh, err := build(plan)
	if err != nil {
		return err
	}
	task.resultCh = resultCh
	p.bindResults(task, resultCh, 0)
	return nil
}

// bindResults subscribes the manager to the task's result channel,
// feeding the stable result queue through a dedup cursor so the
// subscription can be re-bound (publisher migration) without the reader
// noticing. fromSeq > 0 resumes from retained history.
func (p *Peer) bindResults(task *Task, ch *stream.Channel, fromSeq uint64) {
	if task.resultQ == nil {
		task.resultQ = stream.NewQueue()
		task.resultCur = stream.NewCursor(0, task.resultQ.Push)
	}
	cur, q := task.resultCur, task.resultQ
	deliver := func(it stream.Item, _ *stream.Queue) {
		if it.EOS() {
			cur.Terminate(it)
			q.Close()
			return
		}
		cur.Offer(it)
	}
	// Result reading is manager-local (no simulated link), but the
	// resume protocol is the shared one.
	task.resultSub = p.sys.attachResuming(ch, p.name, cur, fromSeq, deliver)
}

// subscribe wires a consumer at consumerPeer to a channel, routing over
// the simulated network when the producer lives elsewhere, and records
// the subscription for teardown. Subscriptions to channels the task does
// not own (reused streams, repository event channels) are tracked
// separately: Stop cancels them eagerly because no eos will ever arrive
// from a shared source.
func (p *Peer) subscribe(task *Task, ch *stream.Channel, consumerPeer string) *stream.Subscription {
	var deliver func(stream.Item, *stream.Queue)
	if ch.Ref().PeerID != consumerPeer {
		deliver = p.sys.link.DeliverHook(ch.Ref().PeerID, consumerPeer)
	}
	sub := ch.Subscribe(consumerPeer, deliver)
	p.trackSub(task, ch, sub)
	return sub
}

// trackSub records a subscription for teardown: subscriptions to shared
// channels (reused streams, repository event channels) are cancelled
// eagerly at Stop, owned ones after the operators drained. It reports
// whether the channel is task-owned.
func (p *Peer) trackSub(task *Task, ch *stream.Channel, sub *stream.Subscription) bool {
	owned := false
	for _, own := range task.channels {
		if own == ch {
			owned = true
			break
		}
	}
	if owned {
		task.subs = append(task.subs, sub)
	} else {
		task.extSubs = append(task.extSubs, sub)
	}
	return owned
}

// subscribeInput is subscribe for a plan-internal input edge: the
// consumer reads a binding-owned queue fed through a cursor gate
// (ordering, dedup, resumability), and the binding (consumer operator,
// producing plan node, queue, cursor) is recorded so failure handling
// can later re-bind the consumer to a replacement producer.
func (p *Peer) subscribeInput(task *Task, consumer, child *algebra.Node, ch *stream.Channel, consumerPeer string) *inputBinding {
	q, cur := p.sys.newBinding(0)
	sub := p.subscribeOrdered(ch, consumerPeer, cur, q, 0)
	if !p.trackSub(task, ch, sub) {
		// Shared source: it will never close on this task's account, so
		// Stop must close the consumer's queue explicitly.
		task.extQueues = append(task.extQueues, q)
	}
	b := &inputBinding{
		consumer:     consumer,
		child:        child,
		consumerPeer: consumerPeer,
		queue:        q,
		sub:          sub,
		cursor:       cur,
		src:          ch,
	}
	task.bindings = append(task.bindings, b)
	return b
}

// makeProc compiles a processor node's spec into a runnable operator.
func (p *Peer) makeProc(n *algebra.Node) (operators.Proc, error) {
	switch n.Op {
	case algebra.OpSelect:
		return &operators.Select{
			Desc: n.Label(),
			Pred: algebra.SelectPred(n.Inputs[0].Schema, n.Select),
		}, nil
	case algebra.OpUnion:
		return &operators.Union{}, nil
	case algebra.OpJoin:
		lk, rk := algebra.JoinKeys(n.Inputs[0].Schema, n.Inputs[1].Schema, n.Join)
		return &operators.Join{
			LeftKey:  lk,
			RightKey: rk,
			Residual: algebra.JoinResidual(n.Inputs[0].Schema, n.Inputs[1].Schema, n.Join),
			Combine:  algebra.JoinCombine(n.Inputs[0].Schema, n.Inputs[1].Schema),
			UseIndex: true,
			Window:   p.sys.Config().JoinWindow,
		}, nil
	case algebra.OpDistinct:
		return &operators.Distinct{Window: p.sys.Config().DistinctWindow}, nil
	case algebra.OpGroup:
		window, err := groupWindow(n)
		if err != nil {
			return nil, err
		}
		agg, err := groupAgg(n)
		if err != nil {
			return nil, err
		}
		return &operators.Group{
			Key:    attrGetter(n.Group.KeyAttr),
			Value:  valueGetter(n.Group),
			Window: window,
			Agg:    agg,
		}, nil
	case algebra.OpPartialAgg:
		window, err := groupWindow(n)
		if err != nil {
			return nil, err
		}
		agg, err := groupAgg(n)
		if err != nil {
			return nil, err
		}
		return &operators.PartialAgg{
			Key:    attrGetter(n.Group.KeyAttr),
			Value:  valueGetter(n.Group),
			Window: window,
			Agg:    agg,
		}, nil
	case algebra.OpMergeAgg:
		// Window indices ride inside the partial states, so the merge
		// needs only its role — interior (forward merged partials) or
		// Final root (emit the flat operator's records) — plus the
		// monoid that decodes and merges those states.
		agg, err := groupAgg(n)
		if err != nil {
			return nil, err
		}
		return &operators.MergeAgg{Final: n.Group.Final, Agg: agg}, nil
	case algebra.OpRestruct:
		return &operators.Restructure{
			Desc:  n.Label(),
			Apply: algebra.RestructApply(n.Inputs[0].Schema, n.Restruct),
		}, nil
	}
	return nil, fmt.Errorf("peer: cannot deploy operator %v", n.Op)
}

func attrGetter(attr string) func(*xmltree.Node) string {
	return func(t *xmltree.Node) string { return t.AttrOr(attr, "") }
}

// valueGetter extracts the aggregated value attribute; nil for count,
// which consumes no value.
func valueGetter(g *algebra.GroupSpec) func(*xmltree.Node) string {
	if g.ValueAttr == "" {
		return nil
	}
	return attrGetter(g.ValueAttr)
}

// groupAgg resolves a Group-family node's aggregate monoid (nil for the
// default count, keeping the operator's zero-value fast path).
func groupAgg(n *algebra.Node) (monoid.Monoid, error) {
	if n.Group.Fn == "" || n.Group.Fn == "count" {
		return nil, nil
	}
	m, ok := monoid.Lookup(n.Group.Fn)
	if !ok {
		return nil, fmt.Errorf("peer: unknown aggregate function %q", n.Group.Fn)
	}
	return m, nil
}

// groupWindow parses a Group-family node's window duration.
func groupWindow(n *algebra.Node) (time.Duration, error) {
	if n.Group.Window == "" {
		return 0, nil
	}
	window, err := time.ParseDuration(n.Group.Window)
	if err != nil {
		return 0, fmt.Errorf("peer: bad group window %q: %w", n.Group.Window, err)
	}
	return window, nil
}

// deployAlerter instantiates the event source a plan's alerter node
// describes and wires it to publish into out.
func (p *Peer) deployAlerter(task *Task, n *algebra.Node, out *stream.Channel) error {
	emit := func(it stream.Item) {
		if it.EOS() {
			out.Close()
			return
		}
		out.Publish(it)
	}
	clock := p.sys.Net.Clock().Now
	name := n.Alerter.Func + "@" + n.Alerter.Peer
	switch n.Alerter.Kind {
	case "ws-in", "ws-out":
		dir := alerters.Inbound
		if n.Alerter.Kind == "ws-out" {
			dir = alerters.Outbound
		}
		al := alerters.NewWS(name, dir, p.sys.Config().IncludeEnvelopes, clock, emit)
		ep := p.sys.Fabric.Endpoint(n.Alerter.Peer)
		if dir == alerters.Inbound {
			ep.OnInbound(al.Hook())
		} else {
			ep.OnOutbound(al.Hook())
		}
		task.closers = append(task.closers, al.Close)
	case "membership":
		al := alerters.NewMembership(name, clock, emit)
		p.sys.Ring.OnMembership(al)
		task.closers = append(task.closers, al.Close)
	case "rss":
		target := p.sys.Peer(n.Alerter.Peer)
		if target == nil {
			return fmt.Errorf("peer: rssCOM target %q is not a peer", n.Alerter.Peer)
		}
		url, fetch, err := target.feed(argAttr(n, "feed", "url"))
		if err != nil {
			return err
		}
		al := alerters.NewRSS(name, url, fetch, clock, emit)
		if _, err := al.Poll(); err != nil { // establish the baseline
			return err
		}
		task.pollers = append(task.pollers, func() (int, error) { return al.Poll() })
		task.closers = append(task.closers, al.Close)
	case "webpage":
		target := p.sys.Peer(n.Alerter.Peer)
		if target == nil {
			return fmt.Errorf("peer: pageCOM target %q is not a peer", n.Alerter.Peer)
		}
		url, fetch, err := target.page(argAttr(n, "page", "url"))
		if err != nil {
			return err
		}
		al := alerters.NewWebPage(name, url, fetch, true, clock, emit)
		if _, err := al.Poll(); err != nil {
			return err
		}
		task.pollers = append(task.pollers, func() (int, error) {
			ok, err := al.Poll()
			if ok {
				return 1, err
			}
			return 0, err
		})
		task.closers = append(task.closers, al.Close)
	case "axml":
		target := p.sys.Peer(n.Alerter.Peer)
		if target == nil {
			return fmt.Errorf("peer: axmlCOM target %q is not a peer", n.Alerter.Peer)
		}
		target.Repo() // ensure the repository event channel exists
		sub := p.subscribe(task, target.repoCh, n.Peer)
		h := p.sys.run(&operators.Union{}, []*stream.Queue{sub.Queue}, emit)
		task.handles = append(task.handles, h)
	default:
		return fmt.Errorf("peer: unknown alerter kind %q", n.Alerter.Kind)
	}
	return nil
}

// argAttr extracts an attribute from an alerter's XML argument, e.g. the
// url of <feed url="..."/>.
func argAttr(n *algebra.Node, elem, attr string) string {
	for _, a := range n.Alerter.Args {
		if a.Label == elem {
			return a.AttrOr(attr, "")
		}
	}
	return ""
}

// runDynAlerter manages the dynamic alerter set of an inCOM($j)-style
// source: membership events attach and detach WS alerters on the joined
// peers, all publishing into the same output channel.
func (p *Peer) runDynAlerter(task *Task, n *algebra.Node, driver *stream.Queue, out *stream.Channel) {
	d := &dynAlerter{p: p, task: task, fn: n.Alerter.Func, dir: alerters.Inbound, out: out, active: make(map[string]*atomic.Bool)}
	if n.Alerter.Func == "outCOM" {
		d.dir = alerters.Outbound
	}
	task.handles = append(task.handles, p.sys.run(d, []*stream.Queue{driver}, operators.ChannelPublish(out)))
}

// dynAlerter is the Proc behind runDynAlerter; active maps each
// monitored peer to the flag that keeps its alerter publishing.
type dynAlerter struct {
	p      *Peer
	task   *Task
	fn     string
	dir    alerters.Direction
	out    *stream.Channel
	active map[string]*atomic.Bool
}

func (d *dynAlerter) Name() string { return "DynAlerter" }

func (d *dynAlerter) Accept(_ int, it stream.Item, _ operators.Emit) {
	peerName := it.Tree.InnerText()
	switch it.Tree.Label {
	case "p-join":
		if d.active[peerName] != nil {
			return
		}
		flag := &atomic.Bool{}
		flag.Store(true)
		al := alerters.NewWS(d.fn+"@"+peerName, d.dir, d.p.sys.Config().IncludeEnvelopes, d.p.sys.Net.Clock().Now,
			func(item stream.Item) {
				if flag.Load() && !item.EOS() {
					d.out.Publish(item)
				}
			})
		ep := d.p.sys.Fabric.Endpoint(peerName)
		if d.dir == alerters.Inbound {
			ep.OnInbound(al.Hook())
		} else {
			ep.OnOutbound(al.Hook())
		}
		d.active[peerName] = flag
	case "p-leave":
		// "inCOM removes peers from the collection of monitored peers"
		// (Section 2).
		if flag := d.active[peerName]; flag != nil {
			flag.Store(false)
			delete(d.active, peerName)
		}
	}
	d.task.dynEvents.Add(1)
}

// Flush deactivates every attached alerter before the output closes:
// the fabric has no hook-removal API, so the leaked closures must
// become no-ops (their flag check short-circuits before any work).
func (d *dynAlerter) Flush(operators.Emit) {
	for _, flag := range d.active {
		flag.Store(false)
	}
}

// deployPublisher wires the BY-clause targets: the named result channel,
// plus e-mail / file / RSS sinks and delegated channel subscriptions. It
// returns the named channel, which is the task's public result stream.
func (p *Peer) deployPublisher(task *Task, n *algebra.Node, in *stream.Queue) (*stream.Channel, error) {
	named := p.sys.allocChannel(task, n.Peer, n.Publish.ChannelID)
	task.namedCh = named
	if err := p.runPublisher(task, n, in, named); err != nil {
		return nil, err
	}
	return named, nil
}

// runPublisher builds the sink fan-out feeding the named channel and the
// human-facing targets, and starts the publisher operator over in. The
// sinks reference task-level state (Mailbox, FileOut, RSSOut), so
// failover can rebuild them at a new host without losing what was
// already published.
func (p *Peer) runPublisher(task *Task, n *algebra.Node, in *stream.Queue, named *stream.Channel) error {
	spec := n.Publish

	var sinks []operators.Emit
	sinks = append(sinks, operators.ChannelPublish(named))
	for _, tgt := range spec.Targets {
		switch tgt.Kind {
		case p2pml.ByPublishChannel, p2pml.ByChannel:
			// The named channel above covers channel publication.
		case p2pml.ByEmail:
			ep := &operators.EmailPublisher{W: &task.Mailbox, To: tgt.Name}
			sinks = append(sinks, ep.Emit)
		case p2pml.ByFile:
			fp := &operators.XMLFilePublisher{W: &task.FileOut}
			sinks = append(sinks, fp.Emit)
		case p2pml.ByRSS:
			if task.RSSOut == nil { // re-deployments keep the accumulated feed
				task.RSSOut = &operators.RSSPublisher{Title: tgt.Name, MaxItems: 50}
			}
			sinks = append(sinks, task.RSSOut.Emit)
		case p2pml.BySubscribe:
			// subscribe(peer, #id, name): the target peer is enrolled as
			// the channel's first client, delivery landing in its #id
			// incoming queue.
			target, err := p.sys.AddPeer(tgt.Peer)
			if err != nil {
				return err
			}
			dest := target.Incoming(tgt.ChannelID)
			// The target's incoming queue is task-level state like the
			// other sinks: its cursor survives publisher migrations, so
			// the rebuilt fan-out resumes from what the target already
			// received and re-emissions deduplicate.
			var cur *stream.Cursor
			var fromSeq uint64
			if p.sys.replayOn() {
				key := tgt.Peer + "#" + tgt.ChannelID
				if task.subTargets == nil {
					task.subTargets = make(map[string]*subTarget)
				}
				st := task.subTargets[key]
				if st == nil {
					st = &subTarget{peer: tgt.Peer, cur: stream.NewCursor(0, dest.Push), dest: dest}
					task.subTargets[key] = st
				}
				cur = st.cur
				fromSeq = cur.Next()
			}
			sub := p.sys.attachResuming(named, tgt.Peer, cur, fromSeq,
				p.sys.link.DeliverHook(named.Ref().PeerID, tgt.Peer))
			task.subs = append(task.subs, sub)
			sub.Queue.Track(&p.sys.inflight)
			go func() {
				for {
					it, ok := sub.Queue.Pop()
					if !ok {
						dest.Close()
						return
					}
					switch {
					case cur == nil:
						dest.Push(it)
					case it.EOS():
						cur.Terminate(it) // flush parked items before the terminator
					default:
						cur.Offer(it)
					}
					sub.Queue.Done()
				}
			}()
		}
	}
	host := named.Ref().PeerID
	fanout := func(it stream.Item) {
		// Fail-stop fidelity: a fan-out whose host crashed (or whose
		// channel was superseded by a migration) emits nothing — its
		// replacement instance owns the sinks now. Without this guard the
		// dead instance would keep draining its closed queue into the
		// shared mailbox/file/feed alongside the replacement.
		if !p.sys.Net.Alive(host) || p.sys.isStale(named.Ref()) {
			return
		}
		for _, s := range sinks {
			s(it)
		}
	}
	proc := &operators.Union{}
	h := p.sys.run(proc, []*stream.Queue{in}, fanout)
	task.handles = append(task.handles, h)
	task.procs[n] = &procInstance{proc: proc, handle: h}
	return nil
}
