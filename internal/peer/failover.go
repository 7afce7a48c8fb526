package peer

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
)

// ctrlMsgBytes is the accounted size of one failover control message
// (re-deployment order, re-subscription): the repair path shows up in
// the traffic counters like everything else.
const ctrlMsgBytes = 256

// FailoverEvent records one repair action taken when a peer died.
type FailoverEvent struct {
	TaskID   string
	Operator string // label of the affected operator (or consumed channel)
	From     string // the dead host
	To       string // the new host; empty when the loss is unrepairable
	// ViaReplica is true when an announced replica (Section 5) provided
	// the failover path.
	ViaReplica bool
	// At is the virtual time of the repair (= detection time: repair is
	// immediate once the detector fires).
	At time.Duration
}

// Repaired reports whether the event found a new host.
func (e FailoverEvent) Repaired() bool { return e.To != "" }

// markStale records that a channel lost its producer (the operator
// migrated elsewhere). Staleness propagates through replica forwarders:
// a replica of a stale stream forwards nothing, so it is stale too —
// except the channel a re-deployed operator just adopted as its new
// output.
func (s *System) markStale(ref, except stream.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markStaleLocked(ref, except)
}

func (s *System) markStaleLocked(ref, except stream.Ref) {
	if ref == except || s.stale[ref] {
		return
	}
	s.stale[ref] = true
	for _, f := range s.forwarders {
		if f.orig == ref {
			s.markStaleLocked(f.rep.Ref(), except)
		}
	}
}

// isStale reports whether a channel lost its producer to a migration.
func (s *System) isStale(ref stream.Ref) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stale[ref]
}

// usable reports whether a channel is a viable provider: host alive and
// producer still attached.
func (s *System) usable(ref stream.Ref) bool {
	return s.Net.Alive(ref.PeerID) && !s.isStale(ref)
}

// aliveOnly wraps a reuse chooser so it never selects a provider hosted
// on a crashed peer, or one whose producer migrated away, when a viable
// alternative exists.
func aliveOnly(s *System, inner reuse.Chooser) reuse.Chooser {
	return func(consumer string, original stream.Ref, replicas []stream.Ref) stream.Ref {
		var ok []stream.Ref
		for _, r := range replicas {
			if s.usable(r) {
				ok = append(ok, r)
			}
		}
		if !s.usable(original) && len(ok) > 0 {
			return inner(consumer, ok[0], ok[1:])
		}
		return inner(consumer, original, ok)
	}
}

// Supervisor couples a failure detector with self-healing: a declared
// death triggers FailPeer (crash the substrate links, re-replicate DHT
// keys, migrate the dead peer's operators), a recovery rejoins the peer.
// The detector may be the single-home heartbeat Detector or the
// decentralized GossipDetector — the supervisor only sees the
// FailureDetector events.
type Supervisor struct {
	sys *System
	det FailureDetector

	mu     sync.Mutex
	events []FailoverEvent
	deaths []string
}

// StartSupervisor starts a heartbeat failure detector hosted at home
// (watching all currently registered peers) and wires self-healing to
// it. Tick it via System.Step.
func (s *System) StartSupervisor(home string, opts DetectorOptions) *Supervisor {
	return s.superviseDetector(s.StartDetector(home, opts))
}

// StartGossipSupervisor wires self-healing to a SWIM-style gossip
// failure detector spanning every registered peer. Unlike
// StartSupervisor there is no home: detection is hosted everywhere, and
// the supervisor acts on the quorum-confirmed membership view, so it
// keeps working when any individual peer — including whichever peer a
// home detector would have lived on — crashes or is partitioned away.
func (s *System) StartGossipSupervisor(opts GossipOptions) *Supervisor {
	if opts.Seed == 0 {
		opts.Seed = s.Config().Seed
	}
	return s.superviseDetector(s.StartGossipDetector(opts))
}

// superviseDetector is the shared supervisor wiring over any detector.
func (s *System) superviseDetector(det FailureDetector) *Supervisor {
	sup := &Supervisor{sys: s, det: det}
	sup.det.OnDeath(func(peer string, at time.Duration) {
		evs := s.FailPeer(peer, at)
		sup.mu.Lock()
		sup.deaths = append(sup.deaths, peer)
		sup.events = append(sup.events, evs...)
		sup.mu.Unlock()
	})
	sup.det.OnRecover(func(peer string, at time.Duration) {
		evs := s.RejoinPeer(peer)
		sup.mu.Lock()
		sup.events = append(sup.events, evs...)
		sup.mu.Unlock()
	})
	return sup
}

// Detector exposes the underlying failure detector (e.g. to Watch peers
// added after the supervisor started).
func (sup *Supervisor) Detector() FailureDetector { return sup.det }

// Events returns all failover actions taken so far.
func (sup *Supervisor) Events() []FailoverEvent {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return append([]FailoverEvent(nil), sup.events...)
}

// Deaths returns the peers declared dead so far, in detection order.
func (sup *Supervisor) Deaths() []string {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return append([]string(nil), sup.deaths...)
}

// FailPeer processes a confirmed-dead peer: its substrate links go down,
// the DHT drops it and re-replicates the keys it held, and every live
// task with operators or consumed channels on it is repaired — operators
// are re-deployed onto live peers (preferring hosts that announced a
// replica of the affected stream) and consumers are re-bound end-to-end.
// It returns the repair actions taken. FailPeer is what the Supervisor
// calls on detection; tests and harnesses may call it directly.
func (s *System) FailPeer(dead string, at time.Duration) []FailoverEvent {
	s.Net.Crash(dead) //nolint:errcheck // unknown nodes have no links to cut
	if s.Peer(dead) != nil {
		s.Ring.Fail(dead) //nolint:errcheck // double-fail is a no-op
	}
	s.severForwarders(dead)
	return s.repairDeparted(dead, at)
}

// LeavePeer removes a peer gracefully — the cooperative counterpart of
// FailPeer's crash handling, closing the membership layer's "a departing
// peer announces and hands off instead of being suspected" follow-up.
// The departure is announced to every failure detector (gossip
// disseminates it, no suspicion window ever opens, no death event
// fires), the peer's DHT keys migrate to their new owners with the store
// intact (Ring.Leave, not Fail — replication never thins), and its
// hosted operators and managed tasks move to live peers immediately
// through the ordinary repair phases. With the replay layer on, a
// checkpoint sweep runs first while the leaver is still up, so the
// migrations restore warm state and the handoff is lossless — zero
// detection latency, zero outage window. The repair actions taken are
// returned; leave events reach membership alerters through the ring's
// leave hooks as usual.
func (s *System) LeavePeer(name string) ([]FailoverEvent, error) {
	if s.Peer(name) == nil {
		return nil, fmt.Errorf("peer: %s is not a member", name)
	}
	if !s.Net.Alive(name) {
		return nil, fmt.Errorf("peer: %s is down; a crashed peer cannot leave gracefully", name)
	}
	at := s.Net.Clock().Now()
	// Warm handoff: capture fresh checkpoints while the leaver still
	// runs, so its operators' replacements restore the present, not the
	// last periodic sweep.
	if s.replayOn() {
		s.CheckpointNow()
	}
	// The departure announcement: one control message on the wire, every
	// detector unlearns the peer with no suspicion window.
	s.mu.Lock()
	dets := append([]FailureDetector(nil), s.detectors...)
	s.mu.Unlock()
	for _, det := range dets {
		det.Leave(name)
	}
	if tgt := s.leastLoadedLive(name); tgt != "" {
		s.link.CountTransfer(name, tgt, ctrlMsgBytes)
	}
	// Graceful ring departure: the leaver's stored copies migrate to the
	// new owners (unlike Fail, where they die with it).
	s.Ring.Leave(name) //nolint:errcheck // membership was checked above
	s.Net.Crash(name)  //nolint:errcheck // the peer is gone; links go down
	s.severForwarders(name)
	events := s.repairDeparted(name, at)
	if s.aggDegree() > 1 {
		// Ring ownership changed: re-parent any aggregation-tree
		// interiors whose DHT-derived host moved with the departure.
		events = append(events, s.RebalanceAggTrees(at)...)
	}
	return events, nil
}

// severForwardersFrom detaches replica forwarders fed from one specific
// channel — the planned-move counterpart of severForwarders: the origin's
// host stays alive, but the producer is migrating and the old channel's
// teardown EOS must not cascade into replica channels consumers read.
func (s *System) severForwardersFrom(ref stream.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.forwarders {
		if f.orig == ref && !f.severed {
			f.sub.Detach()
			f.severed = true
		}
	}
}

// severForwarders detaches replica forwarders fed from a departed peer:
// the origin's eventual teardown must not close replica channels a
// re-deployed operator is about to take over, and the anti-entropy sweep
// must stop pulling from the abandoned origin.
func (s *System) severForwarders(from string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.forwarders {
		if f.orig.PeerID == from {
			f.sub.Detach()
			f.severed = true
		}
	}
}

// repairDeparted runs the repair phases over a peer that is gone —
// crashed (FailPeer) or gracefully left (LeavePeer); its links are
// already down and the ring no longer holds it.
func (s *System) repairDeparted(dead string, at time.Duration) []FailoverEvent {
	var events []FailoverEvent
	// Phase 0: re-home orphaned tasks. A task whose subscription manager
	// died would otherwise vanish from every live peer's database —
	// never repaired, never checkpointed, never swept (PR 2's
	// "orphaned manager" gap). The management role moves to a live
	// peer, which then owns the repair of whatever the dead peer also
	// hosted (phases 1–2 find the task in its new home).
	if mgrPeer := s.Peer(dead); mgrPeer != nil {
		for _, t := range sortedTasks(mgrPeer) {
			newMgr := s.leastLoadedLive(dead)
			if newMgr == "" {
				continue // nobody left to adopt it; the task stays orphaned
			}
			events = append(events, s.rehomeTask(mgrPeer, t, newMgr, at))
		}
	}
	// Phase 1: re-deploy the operators the dead peer hosted. This runs
	// before consumer re-binding so replacement providers exist (and are
	// announced as replicas) by the time consumers look for one.
	for _, p := range s.livePeers() {
		for _, t := range sortedTasks(p) {
			events = append(events, p.repairOperators(t, dead, at)...)
		}
	}
	// Phase 2: re-bind subscriptions that consumed channels hosted on
	// the dead peer (reused streams, replicas).
	for _, p := range s.livePeers() {
		for _, t := range sortedTasks(p) {
			events = append(events, p.repairChannelIns(t, dead, at)...)
		}
	}
	return events
}

// rehomeTask moves a task's subscription-manager role off a dead peer:
// the task record migrates to newMgr's subscription database and the
// result reader re-binds there, resuming from the result cursor when
// the replay layer is on. Operators the dead peer hosted (often
// including the publisher, when the manager ran it locally) are NOT
// handled here — the task now lives in a live peer's database, so the
// ordinary repair phases find and migrate them.
func (s *System) rehomeTask(old *Peer, t *Task, newMgr string, at time.Duration) FailoverEvent {
	np := s.Peer(newMgr)
	old.mu.Lock()
	delete(old.tasks, t.ID)
	old.mu.Unlock()
	np.mu.Lock()
	np.tasks[t.ID] = t
	np.mu.Unlock()
	t.Manager = newMgr

	// Re-bind the result reader at the new manager. When the named
	// channel itself sat on the dead peer the publisher is about to be
	// re-deployed (phase 1), which re-binds results as part of the
	// migration — re-binding to the doomed channel here would replay
	// from a buffer that died with its host.
	ch := t.namedCh
	if ch == nil {
		ch = t.resultCh
	}
	if ch != nil && ch.Ref().PeerID != old.name {
		if t.resultSub != nil {
			t.resultSub.Detach()
		}
		var resume uint64
		if t.resultCur != nil && ch.ReplayEnabled() {
			resume = t.resultCur.Next()
		}
		np.bindResults(t, ch, resume)
	}
	// The adopting manager pulls the subscription-database record from
	// its surviving DHT copy (the dead peer's links are already cut, so
	// nothing can flow to or from it); the fetch is accounted like any
	// other repair control message.
	if owner, err := s.Ring.Owner(t.ID); err == nil {
		s.link.CountTransfer(owner, newMgr, ctrlMsgBytes)
	}
	return FailoverEvent{TaskID: t.ID, Operator: "manager", From: old.name, To: newMgr, At: at}
}

// RejoinPeer brings a recovered peer back: its links come up and it
// rejoins the DHT ring (which rebalances key placement). Tasks migrated
// away during the outage stay where they are — the peer simply becomes
// eligible for new work. Aggregation-tree interiors ARE re-placed,
// though: rejoining moves ring ownership, and leaving the interiors
// where the outage pushed them would let the deployed tree drift from
// the DHT-derived placement that joins, leaves and future failovers
// re-derive (System.AggPlacements) — the same rebalance every other
// membership change performs.
func (s *System) RejoinPeer(name string) []FailoverEvent {
	s.Net.Recover(name) //nolint:errcheck // unknown nodes have no links
	if s.Peer(name) == nil {
		return nil
	}
	s.Ring.Join(name) //nolint:errcheck // already-joined is fine
	if s.aggDegree() > 1 {
		return s.RebalanceAggTrees(s.Net.Clock().Now())
	}
	return nil
}

// RebalanceAggTrees re-places aggregation-tree interior operators whose
// DHT-derived host changed with ring membership: each interior's routing
// key is resolved against the current ring, and nodes whose owner moved
// migrate there through the ordinary operator re-deployment path —
// downstream consumers re-bind, inputs re-subscribe from their cursors,
// and with replay on the move restores the latest checkpoint and
// deduplicates the overlap (exactly-once, like any failover). The old
// host is alive during a planned move; it is passed as the "departed"
// peer only to scope the re-deployment. Returns the migrations taken.
// System.JoinPeer and LeavePeer invoke this when AggDegree is on; tests
// and harnesses may call it directly.
func (s *System) RebalanceAggTrees(at time.Duration) []FailoverEvent {
	var events []FailoverEvent
	for _, p := range s.livePeers() {
		for _, t := range sortedTasks(p) {
			desired := s.AggPlacements(t.Plan)
			postorder(t.Plan, func(n *algebra.Node) {
				if n.AggKey == "" || !s.Net.Alive(n.Peer) {
					return // crashed hosts are the failover path's job
				}
				want := desired[n.AggKey]
				if want == "" || want == n.Peer {
					return
				}
				ev, err := p.redeployOperator(t, n, n.Peer, at)
				if err != nil {
					// A failed planned move is not a loss: the operator
					// keeps running where it is and the next membership
					// change retries.
					return
				}
				events = append(events, ev)
			})
		}
	}
	if len(events) > 0 {
		// A migrated interior may feed *other* tasks (shared aggregation
		// trees): redeployOperator re-binds only its own task's consumers,
		// so sweep every task for subscriptions left on now-stale channels.
		events = append(events, s.repairStaleChannelIns(at)...)
	}
	return events
}

// repairStaleChannelIns re-binds channel subscriptions whose provider
// migrated away in a *planned* move. The crash path (repairChannelIns)
// only considers channels hosted on the departed peer; after a
// rebalance the old host is alive but the channel lost its producer —
// consumers of a shared interior from other tasks would starve on it
// silently. Each stale subscription follows the replica chain to the
// stream's live provider, resuming from its cursor.
func (s *System) repairStaleChannelIns(at time.Duration) []FailoverEvent {
	var events []FailoverEvent
	for _, p := range s.livePeers() {
		for _, t := range sortedTasks(p) {
			postorder(t.Plan, func(n *algebra.Node) {
				if n.Op != algebra.OpChannelIn || s.usable(n.Channel) {
					return
				}
				origin := n.Origin
				if origin == (stream.Ref{}) {
					origin = n.Channel
				}
				from := n.Channel.PeerID
				repl, viaReplica := s.liveProvider(p.name, origin, "")
				if repl == nil || repl.Ref() == n.Channel {
					return
				}
				for _, b := range t.bindings {
					if b.child == n {
						p.rebind(t, b, repl)
						s.link.CountTransfer(b.consumerPeer, repl.Ref().PeerID, ctrlMsgBytes)
					}
				}
				n.Channel = repl.Ref()
				events = append(events, FailoverEvent{
					TaskID: t.ID, Operator: "∈" + origin.String(), From: from,
					To: repl.Ref().PeerID, ViaReplica: viaReplica, At: at,
				})
			})
		}
	}
	return events
}

// livePeers returns the registered peers whose node is up, sorted by
// name for deterministic repair order.
func (s *System) livePeers() []*Peer {
	s.mu.Lock()
	names := make([]string, 0, len(s.peers))
	for n := range s.peers {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	var out []*Peer
	for _, n := range names {
		if s.Net.Alive(n) {
			out = append(out, s.Peer(n))
		}
	}
	return out
}

func sortedTasks(p *Peer) []*Task {
	ts := p.Tasks()
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	return ts
}

// repairOperators migrates every operator of t hosted on the dead peer.
// Children are visited before parents so a parent re-deployed in the
// same pass subscribes to its child's replacement channel.
func (p *Peer) repairOperators(t *Task, dead string, at time.Duration) []FailoverEvent {
	var events []FailoverEvent
	postorder(t.Plan, func(n *algebra.Node) {
		if n.Peer != dead {
			return
		}
		switch n.Op {
		case algebra.OpChannelIn:
			// Consumed channels are re-bound in phase 2.
		case algebra.OpAlerter:
			// The event source itself died: its events originate at the
			// dead peer, so no live peer can produce them. The task is
			// degraded until the peer returns.
			t.degraded = append(t.degraded, n.Label())
			events = append(events, FailoverEvent{
				TaskID: t.ID, Operator: n.Label(), From: dead, At: at,
			})
		case algebra.OpDynAlerter:
			// The *manager* of the dynamic alerter set died, not the
			// monitored peers: a new manager elsewhere replays the
			// membership stream to reconstruct the active set and
			// re-attaches the hooks. Without the replay layer there is no
			// membership history to reconstruct from — reporting a repair
			// while silently dropping every already-joined peer would be
			// worse than PR 1's visible degradation.
			if !p.sys.replayOn() {
				t.degraded = append(t.degraded, n.Label())
				events = append(events, FailoverEvent{
					TaskID: t.ID, Operator: n.Label(), From: dead, At: at,
				})
				return
			}
			ev, err := p.redeployDynAlerter(t, n, dead, at)
			if err != nil {
				t.degraded = append(t.degraded, n.Label()+": "+err.Error())
				ev = FailoverEvent{TaskID: t.ID, Operator: n.Label(), From: dead, At: at}
			}
			events = append(events, ev)
		case algebra.OpPublish:
			// The publisher's sinks (mailbox, file, feed) are task-level
			// state at the live manager, so the fan-out itself can move:
			// a new named channel opens at a live host and external
			// consumers find it through a replica record.
			ev, err := p.redeployPublisher(t, n, dead, at)
			if err != nil {
				t.degraded = append(t.degraded, n.Label()+": "+err.Error())
				ev = FailoverEvent{TaskID: t.ID, Operator: n.Label(), From: dead, At: at}
			}
			events = append(events, ev)
		default:
			ev, err := p.redeployOperator(t, n, dead, at)
			if err != nil {
				t.degraded = append(t.degraded, n.Label()+": "+err.Error())
				ev = FailoverEvent{TaskID: t.ID, Operator: n.Label(), From: dead, At: at}
			}
			events = append(events, ev)
		}
	})
	return events
}

// redeployOperator moves one processor from the dead peer to a live one:
// a host is chosen (preferring one that announced a replica of the
// operator's output stream, whose channel then simply continues), the
// operator restarts there and every downstream consumer is re-bound to
// the replacement channel while keeping its queue.
//
// Without the replay layer, the operator restarts cold with fresh
// subscriptions from "now": state accumulated at the dead peer and
// events published during the outage are lost — the price of fail-stop
// crashes. With it, the operator restores the latest replicated
// checkpoint (state + input cursors + output sequence), resumes its
// inputs from the checkpointed positions via the upstream replay
// buffers, and re-emits its post-checkpoint suffix under the original
// sequence numbers, which downstream cursors deduplicate — exactly-once
// from the consumer's point of view.
func (p *Peer) redeployOperator(t *Task, n *algebra.Node, dead string, at time.Duration) (FailoverEvent, error) {
	s := p.sys
	oldRef := t.refs[n]
	origRef, hasOrig := t.origRefs[n]
	if !hasOrig {
		origRef = oldRef
	}

	newPeer := ""
	var out *stream.Channel
	viaReplica := false
	// Aggregation-tree interiors are placed by bounded DHT key routing,
	// and repair keeps that invariant: the replacement host is re-derived
	// from the plan's routing keys against the *current* ring (the dead
	// peer already left it), so the tree shape keeps tracking membership
	// across any number of migrations.
	if n.AggKey != "" {
		if cand := s.AggPlacements(t.Plan)[n.AggKey]; cand != "" && cand != dead {
			newPeer = cand
			out = s.allocChannel(t, newPeer, s.nextStreamID(newPeer))
		}
	}
	// Otherwise prefer a live peer that announced a replica of this
	// stream: it is already receiving the data and republishing it under
	// a channel other consumers may already use. Replica records chain
	// to the original identity, so look them up there.
	if newPeer == "" {
		replicas, _, _ := s.DB.Replicas(p.name, origRef)
		for _, r := range replicas {
			if r.PeerID == dead || !s.usable(r) {
				continue
			}
			if ch, ok := s.Channel(r); ok {
				newPeer, out, viaReplica = r.PeerID, ch, true
				// The task's operator now produces this channel, so the
				// task owns its lifecycle: it closes when the operator's
				// inputs end.
				t.channels = append(t.channels, ch)
				break
			}
		}
	}
	if newPeer == "" {
		newPeer = s.leastLoadedLive(dead)
		if newPeer == "" {
			return FailoverEvent{}, fmt.Errorf("no live peer to host %s", n.Label())
		}
		out = s.allocChannel(t, newPeer, s.nextStreamID(newPeer))
	}

	// The replicated checkpoint, if one survives, pins where to resume:
	// output numbering continues from OutSeq and each input replays from
	// its checkpointed cursor. Without one (or with replay off), the
	// inputs replay their full retained history (replay on) or attach at
	// "now" (replay off).
	var ck *ckptRec
	if s.replayOn() {
		ck = s.loadCheckpoint(p.name, t, n)
		if ck != nil && len(ck.In) != len(n.Inputs) {
			ck = nil
		}
		if ck != nil {
			out.SeedSeq(ck.OutSeq)
			// Restore the undelivered output tail into the replacement
			// buffer: consumers the crash caught mid-partition (or
			// mid-drop) can still fetch what the dead producer had
			// published but not delivered.
			out.SeedBuffer(ck.Tail)
		} else {
			// Cold restart: the re-emission either reproduces the
			// original numbering from 1 (full history retained — an
			// adopted replica channel rewinds from its mirrored
			// high-water mark so nothing reappears under fresh numbers)
			// or, with trimmed inputs, continues above the old numbering.
			var oldSeq uint64
			if old, ok := s.Channel(oldRef); ok {
				oldSeq = old.Seq()
			}
			s.coldSeed(t, n, out, oldSeq)
		}
	}

	// Re-bind downstream consumers first, so the old channel's teardown
	// can no longer reach them. A shared interior feeds consumers in
	// *other* tasks too (grafted aggregation trees, reused streams):
	// every binding still reading the old channel is re-bound now, not
	// left to a later sweep — the moment the old instance's input queues
	// close it flushes and publishes EOS, and an EOS that reaches a
	// consumer's queue terminates that input permanently (re-binding the
	// queue afterwards feeds items nobody reads).
	for _, b := range t.bindings {
		if b.child == n {
			p.rebind(t, b, out)
		}
	}
	for _, cp := range s.livePeers() {
		for _, ct := range sortedTasks(cp) {
			if ct == t {
				continue
			}
			for _, b := range ct.bindings {
				if b.src == nil || b.src.Ref() != oldRef {
					continue
				}
				cp.rebind(ct, b, out)
				if b.child != nil && b.child.Op == algebra.OpChannelIn && b.child.Channel == oldRef {
					b.child.Channel = out.Ref()
				}
				s.link.CountTransfer(b.consumerPeer, newPeer, ctrlMsgBytes)
			}
		}
	}
	// Replica forwarders fed from the old channel must not relay its
	// terminal EOS into their replica channels (closing them under any
	// consumer — including, when the replacement adopted one, the very
	// channel the new instance is about to publish into). Detach them;
	// markStale below propagates to the non-adopted ones and the stale
	// sweep re-binds their consumers.
	s.severForwardersFrom(oldRef)

	// Re-subscribe the inputs; the dead operator's old input queues are
	// closed so its goroutine terminates instead of waiting on starved
	// queues forever. Items buffered there die with the crashed peer —
	// with replay on they are retransmitted from the producers' buffers.
	myBindings := t.bindingsOf(n)
	if len(myBindings) != len(n.Inputs) {
		return FailoverEvent{}, fmt.Errorf("bindings out of sync for %s", n.Label())
	}
	queues := make([]*stream.Queue, len(n.Inputs))
	for i, in := range n.Inputs {
		ch, ok := s.nodeChannel(t, in)
		if !ok {
			return FailoverEvent{}, fmt.Errorf("input channel of %s not found", n.Label())
		}
		var fromSeq uint64
		if s.replayOn() {
			fromSeq = 1
			if ck != nil {
				fromSeq = ck.In[i] + 1
			}
		}
		queues[i] = p.resubscribeInput(t, myBindings[i], ch, newPeer, fromSeq)
	}

	proc, err := p.makeProc(n)
	if err != nil {
		return FailoverEvent{}, err
	}
	if ck != nil && ck.State != nil {
		if sn, ok := proc.(operators.Snapshotter); ok {
			if err := sn.Restore(ck.State); err != nil {
				// A corrupt snapshot degrades to a cold restart; the
				// input replay still reconstructs what the buffers hold.
				proc, _ = p.makeProc(n)
			}
		}
	}
	h := s.run(proc, queues, operators.ChannelPublish(out))
	if ck != nil {
		// The restored instance has logically consumed everything up to
		// the checkpoint — a checkpoint sweep racing the replayed suffix
		// must not record its cursors as 0.
		for i, seq := range ck.In {
			h.SeedConsumed(i, seq)
		}
	}
	t.handles = append(t.handles, h)
	t.procs[n] = &procInstance{proc: proc, handle: h}

	n.Peer = newPeer
	t.refs[n] = out.Ref()
	// The abandoned channel has no producer anymore: never offer it (or
	// forwarders fed from it, other than the adopted one) as a provider
	// again, even after its host recovers.
	s.markStale(oldRef, out.Ref())
	// Announce the replacement as a provider under the stream's original
	// identity (consumers' ChannelIn Origin and published descriptors
	// both name it), so phase 2 and future subscriptions find it across
	// any number of migrations.
	s.DB.PublishReplica(origRef, out.Ref()) //nolint:errcheck // ring is non-empty here
	if oldRef != origRef {
		s.DB.PublishReplica(oldRef, out.Ref()) //nolint:errcheck // same ring
	}
	s.link.CountTransfer(t.Manager, newPeer, ctrlMsgBytes)

	return FailoverEvent{
		TaskID: t.ID, Operator: n.Label(), From: dead, To: newPeer,
		ViaReplica: viaReplica, At: at,
	}, nil
}

// redeployPublisher moves a task's publisher fan-out off a dead host.
// The task's manager is live by the time this runs — either it was
// never the dead peer, or FailPeer phase 0 already re-homed the
// management role (rehomeTask) — but the publisher may have sat on the
// dead peer either way. A new named channel with the same ChannelID
// opens at a live peer, the sink fan-out is rebuilt over the task-level
// sink state, the manager's result subscription re-binds to it, and a
// replica record chains the old channel identity to the new one so
// external consumers re-bound in phase 2 (or subscribing later) find it.
func (p *Peer) redeployPublisher(t *Task, n *algebra.Node, dead string, at time.Duration) (FailoverEvent, error) {
	s := p.sys
	newPeer := s.leastLoadedLive(dead)
	if newPeer == "" {
		return FailoverEvent{}, fmt.Errorf("no live peer to host %s", n.Label())
	}
	var ck *ckptRec
	if s.replayOn() {
		ck = s.loadCheckpoint(p.name, t, n)
		if ck != nil && len(ck.In) != 1 {
			ck = nil
		}
	}
	oldNamed := t.namedCh
	named := s.allocChannel(t, newPeer, n.Publish.ChannelID)
	switch {
	case ck != nil:
		named.SeedSeq(ck.OutSeq)
		named.SeedBuffer(ck.Tail) // undelivered results survive the host
	case s.replayOn():
		// Cold restart: re-emit under the original numbering when the
		// input history is complete, else continue above the old results.
		var oldSeq uint64
		if oldNamed != nil {
			oldSeq = oldNamed.Seq()
		}
		s.coldSeed(t, n, named, oldSeq)
	case oldNamed != nil:
		// Replay off: nothing is re-emitted, so continue the result
		// numbering from the stream's last known sequence (in a real
		// deployment, the published stream statistics; here, the
		// abandoned channel object) to keep it monotonic.
		named.SeedSeq(oldNamed.Seq())
	}

	// Re-subscribe the publisher's input, resuming from the checkpoint.
	myBindings := t.bindingsOf(n)
	if len(myBindings) != 1 {
		return FailoverEvent{}, fmt.Errorf("bindings out of sync for %s", n.Label())
	}
	ch, ok := s.nodeChannel(t, n.Inputs[0])
	if !ok {
		return FailoverEvent{}, fmt.Errorf("input channel of %s not found", n.Label())
	}
	var fromSeq uint64
	if s.replayOn() {
		fromSeq = 1
		if ck != nil {
			fromSeq = ck.In[0] + 1
		}
	}
	q := p.resubscribeInput(t, myBindings[0], ch, newPeer, fromSeq)

	if err := p.runPublisher(t, n, q, named); err != nil {
		return FailoverEvent{}, err
	}
	if ck != nil {
		t.procs[n].handle.SeedConsumed(0, ck.In[0])
	}

	// The manager keeps reading the same Results() queue: its
	// subscription re-binds to the new named channel and the result
	// cursor drops the re-published overlap.
	var resumeFrom uint64
	if t.resultCur != nil && named.ReplayEnabled() {
		resumeFrom = t.resultCur.Next()
	}
	if t.resultSub != nil {
		t.resultSub.Detach()
	}
	p.bindResults(t, named, resumeFrom)

	t.namedCh = named
	if t.resultCh == oldNamed {
		t.resultCh = named
	}
	n.Peer = newPeer
	if oldNamed != nil {
		s.markStale(oldNamed.Ref(), named.Ref())
		s.DB.PublishReplica(oldNamed.Ref(), named.Ref()) //nolint:errcheck // ring is non-empty here
	}
	s.link.CountTransfer(t.Manager, newPeer, ctrlMsgBytes)
	return FailoverEvent{
		TaskID: t.ID, Operator: n.Label(), From: dead, To: newPeer, At: at,
	}, nil
}

// redeployDynAlerter moves the manager of an inCOM($j)-style dynamic
// alerter set off a dead host. The monitored peers (where the hooks
// attach) are unaffected — only the coordination loop died. A fresh
// manager at a live peer replays the full membership stream from the
// driver channel's retention buffer, reconstructing the active alerter
// set; its output channel continues the logical stream's numbering so
// downstream cursors stay valid. Events the monitored peers emitted
// during the outage are not recoverable (they originate live at the
// substrate), matching the alerter semantics.
func (p *Peer) redeployDynAlerter(t *Task, n *algebra.Node, dead string, at time.Duration) (FailoverEvent, error) {
	s := p.sys
	oldRef := t.refs[n]
	origRef, hasOrig := t.origRefs[n]
	if !hasOrig {
		origRef = oldRef
	}
	newPeer := s.leastLoadedLive(dead)
	if newPeer == "" {
		return FailoverEvent{}, fmt.Errorf("no live peer to host %s", n.Label())
	}
	out := s.allocChannel(t, newPeer, s.nextStreamID(newPeer))
	if old, ok := s.Channel(oldRef); ok {
		// Continue the logical numbering past everything the old manager
		// published; live alert streams cannot replay, so there is no
		// overlap to re-emit.
		out.SeedSeq(old.Seq())
	}

	for _, b := range t.bindings {
		if b.child == n {
			p.rebind(t, b, out)
		}
	}

	// Re-subscribe the membership driver from the beginning of its
	// retained history: p-join/p-leave events replayed in order rebuild
	// the active set (a fresh manager deduplicates joins by construction).
	myBindings := t.bindingsOf(n)
	if len(myBindings) != 1 {
		return FailoverEvent{}, fmt.Errorf("bindings out of sync for %s", n.Label())
	}
	ch, ok := s.nodeChannel(t, n.Inputs[0])
	if !ok {
		return FailoverEvent{}, fmt.Errorf("driver channel of %s not found", n.Label())
	}
	var fromSeq uint64
	if s.replayOn() {
		fromSeq = 1
	}
	// Closing the old binding queue makes the old manager loop exit,
	// deactivate its alerters and close its stale channel.
	q := p.resubscribeInput(t, myBindings[0], ch, newPeer, fromSeq)

	p.runDynAlerter(t, n, q, out)
	if ch.ReplayTrimmed() > 0 {
		// Part of the membership history was evicted from the driver's
		// bounded buffer: the reconstructed active set may be missing
		// peers that joined early. Report it — silently narrowing the
		// monitored set would defeat the point of re-deploying at all.
		t.degraded = append(t.degraded, n.Label()+": membership history truncated, active set may be partial")
	}

	n.Peer = newPeer
	t.refs[n] = out.Ref()
	s.markStale(oldRef, out.Ref())
	s.DB.PublishReplica(origRef, out.Ref()) //nolint:errcheck // ring is non-empty here
	if oldRef != origRef {
		s.DB.PublishReplica(oldRef, out.Ref()) //nolint:errcheck // same ring
	}
	s.link.CountTransfer(t.Manager, newPeer, ctrlMsgBytes)
	return FailoverEvent{
		TaskID: t.ID, Operator: n.Label(), From: dead, To: newPeer, At: at,
	}, nil
}

// repairChannelIns re-binds the task's subscriptions to channels that
// lived on the dead peer (reused streams and replicas) onto a live
// provider of the same original stream.
func (p *Peer) repairChannelIns(t *Task, dead string, at time.Duration) []FailoverEvent {
	var events []FailoverEvent
	postorder(t.Plan, func(n *algebra.Node) {
		if n.Op != algebra.OpChannelIn || n.Channel.PeerID != dead {
			return
		}
		origin := n.Origin
		if origin == (stream.Ref{}) {
			origin = n.Channel
		}
		repl, viaReplica := p.sys.liveProvider(p.name, origin, dead)
		if repl == nil {
			t.degraded = append(t.degraded, "channel "+n.Channel.String())
			events = append(events, FailoverEvent{
				TaskID: t.ID, Operator: "∈" + n.Channel.String(), From: dead, At: at,
			})
			return
		}
		for _, b := range t.bindings {
			if b.child == n {
				p.rebind(t, b, repl)
				p.sys.link.CountTransfer(b.consumerPeer, repl.Ref().PeerID, ctrlMsgBytes)
			}
		}
		n.Channel = repl.Ref()
		events = append(events, FailoverEvent{
			TaskID: t.ID, Operator: "∈" + origin.String(), From: dead,
			To: repl.Ref().PeerID, ViaReplica: viaReplica, At: at,
		})
	})
	return events
}

// liveProvider finds a live channel carrying the stream origin: the
// original channel if its host is up and it still has its producer,
// else any usable announced replica (including re-deployments
// registered by redeployOperator, which chain to the origin).
func (s *System) liveProvider(from string, origin stream.Ref, dead string) (*stream.Channel, bool) {
	if origin.PeerID != dead && s.usable(origin) {
		if ch, ok := s.Channel(origin); ok {
			return ch, false
		}
	}
	replicas, _, _ := s.DB.Replicas(from, origin)
	for _, r := range replicas {
		if r.PeerID == dead || !s.usable(r) {
			continue
		}
		if ch, ok := s.Channel(r); ok {
			return ch, true
		}
	}
	return nil, false
}

// rebind swaps the producer feeding one input binding: the old
// subscription detaches (without closing the consumer's queue) and a new
// subscription on ch delivers into the same queue over the simulated
// network. The consumer operator never notices the swap. With the replay
// layer on, the new subscription resumes from the binding's cursor —
// replaying what the consumer missed, deduplicating what it already has
// — instead of attaching at "now".
func (p *Peer) rebind(t *Task, b *inputBinding, ch *stream.Channel) {
	b.sub.Detach()
	var fromSeq uint64
	if b.cursor != nil && ch.ReplayEnabled() {
		fromSeq = b.cursor.Next()
	}
	sub := p.subscribeOrdered(ch, b.consumerPeer, b.cursor, b.queue, fromSeq)
	b.sub = sub
	b.src = ch
	if !p.trackSub(t, ch, sub) {
		// Shared source: it will never close on this task's account, so
		// Stop must close the consumer's queue explicitly (the eager
		// cancellation extSubs get closes only the subscription's own,
		// unused, queue).
		t.extQueues = append(t.extQueues, b.queue)
	}
}

// nodeChannel resolves the channel currently carrying a plan node's
// output stream.
func (s *System) nodeChannel(t *Task, n *algebra.Node) (*stream.Channel, bool) {
	if n.Op == algebra.OpChannelIn {
		return s.Channel(n.Channel)
	}
	ref, ok := t.refs[n]
	if !ok {
		return nil, false
	}
	return s.Channel(ref)
}

// bindingsOf returns the input bindings of one consumer operator in
// input order (they are recorded in deployment order).
func (t *Task) bindingsOf(n *algebra.Node) []*inputBinding {
	var out []*inputBinding
	for _, b := range t.bindings {
		if b.consumer == n {
			out = append(out, b)
		}
	}
	return out
}

// leastLoadedLive picks the live peer with the lowest operator load
// (name as tie-breaker), excluding the dead peer.
func (s *System) leastLoadedLive(dead string) string {
	best, bestLoad := "", 0
	for _, p := range s.livePeers() {
		if p.name == dead {
			continue
		}
		l := s.Net.Load(p.name)
		if best == "" || l < bestLoad {
			best, bestLoad = p.name, l
		}
	}
	return best
}

// postorder visits children before parents.
func postorder(n *algebra.Node, f func(*algebra.Node)) {
	for _, in := range n.Inputs {
		postorder(in, f)
	}
	f(n)
}
