// Runtime re-chunking of aggregation trees: SplitInterior takes one hot
// merge interior and pushes its children down under two fresh key-routed
// sub-interiors, halving the hot host's fan-in while the tree keeps
// running. The move is exactly-once end to end: the old instance's
// state, input cursors and output position are captured as one
// consistent cut (the same Handle.Sync discipline checkpoints use), the
// new sub-interiors resume each child stream from the cut via the
// replay buffers, and the split interior restarts from the captured
// state on a replacement channel that continues the original sequence
// numbering — downstream cursors deduplicate any overlap, so the
// published output is byte-identical to the unsplit run.
package peer

import (
	"fmt"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/stream"
)

// SplitEvent reports one completed interior split.
type SplitEvent struct {
	TaskID   string
	Operator string   // label of the re-chunked interior
	Peer     string   // its (unchanged) host
	Keys     []string // routing keys of the created sub-interiors
	Hosts    []string // their DHT-derived hosts, parallel to Keys
	At       time.Duration
}

// SplitInterior re-chunks the aggregation-tree interior identified by
// its routing key inside one task: direct actuation for tests and
// operators; the load-driven controller (startRechunkController) calls
// the same machinery. Requires the replay layer — without retained
// input history the children could not resume from the cut.
func (s *System) SplitInterior(t *Task, aggKey string) (SplitEvent, error) {
	if aggKey == "" {
		return SplitEvent{}, fmt.Errorf("peer: only key-routed interiors split (the Final root stays put)")
	}
	p := s.Peer(t.Manager)
	if p == nil || !s.Net.Alive(t.Manager) {
		return SplitEvent{}, fmt.Errorf("peer: task %s has no live manager", t.ID)
	}
	var target *algebra.Node
	t.Plan.Walk(func(n *algebra.Node) {
		if n.AggKey == aggKey {
			target = n
		}
	})
	if target == nil {
		return SplitEvent{}, fmt.Errorf("peer: no interior %q in task %s", aggKey, t.ID)
	}
	return p.splitInterior(t, target, s.Net.Clock().Now())
}

// splitInterior is the split transaction. Ordering mirrors
// redeployOperator: downstream consumers re-bind to the replacement
// channel BEFORE any old input queue closes (closing them makes the old
// instance flush and publish EOS — which must land in the abandoned
// channel, not in a queue someone still reads), then the moved children
// re-subscribe under the new sub-interiors from the cut, and finally
// the interior restarts from its captured state. A CheckpointNow at the
// end makes the new shape durable immediately: the pre-split checkpoint
// has the old arity (the loader's len(In) guard would discard it), so a
// crash in the gap would otherwise cold-restart the interior and lose
// the merged pre-cut state.
func (p *Peer) splitInterior(t *Task, n *algebra.Node, at time.Duration) (SplitEvent, error) {
	s := p.sys
	if !s.replayOn() {
		return SplitEvent{}, fmt.Errorf("peer: SplitInterior needs the replay layer")
	}
	if !s.Net.Alive(n.Peer) {
		// A dead host is failover's problem: repair re-derives the
		// interior's placement and restores its checkpoint; splitting a
		// corpse would capture nothing.
		return SplitEvent{}, fmt.Errorf("peer: interior host %s is down", n.Peer)
	}
	inst := t.procs[n]
	if inst == nil {
		return SplitEvent{}, fmt.Errorf("peer: interior %s is not running", n.Label())
	}
	out, ok := s.Channel(t.refs[n])
	if !ok {
		return SplitEvent{}, fmt.Errorf("peer: interior %s has no output channel", n.Label())
	}

	// 1. Capture the cut: state, per-input consumed positions and output
	// sequence, serialized with the processing loop so they are mutually
	// consistent; plus the undelivered output tail, which must survive
	// the old channel's abandonment.
	oldInputs := append([]*algebra.Node(nil), n.Inputs...)
	rec := &ckptRec{In: make([]uint64, len(oldInputs))}
	inst.handle.Sync(func() {
		for i := range oldInputs {
			rec.In[i] = inst.handle.Consumed(i)
		}
		rec.OutSeq = out.Seq()
		if sn, ok := inst.proc.(operators.Snapshotter); ok {
			rec.State = sn.Snapshot()
		}
	})
	if low := s.lowWater(out.Ref(), rec.OutSeq); low <= rec.OutSeq {
		rec.Tail, _ = out.Replay(low, rec.OutSeq)
	}
	cut := make(map[*algebra.Node]uint64, len(oldInputs))
	for i, c := range oldInputs {
		cut[c] = rec.In[i]
	}

	// 2. Re-chunk the plan under a fresh tree identity (unique per split,
	// so the new routing keys collide with nothing placed before), then
	// pin the new interiors to their DHT-derived homes.
	s.mu.Lock()
	s.splitSeq++
	id := fmt.Sprintf("%s.s%d", t.ID, s.splitSeq)
	s.mu.Unlock()
	created := aggtree.Split(n, id, aggtree.Config{Degree: s.aggDegree()})
	if len(created) == 0 {
		return SplitEvent{}, fmt.Errorf("peer: interior %s is too narrow to split (fan-in %d)", n.Label(), len(oldInputs))
	}
	desired := s.AggPlacements(t.Plan)
	for _, m := range created {
		if h := desired[m.AggKey]; h != "" {
			m.Peer = h
		}
	}

	// 3. Open the replacement output continuing the original numbering
	// and re-home every downstream consumer — this task's and, for shared
	// interiors, other tasks' — before anything can close.
	oldRef := t.refs[n]
	newOut := s.allocChannel(t, n.Peer, s.nextStreamID(n.Peer))
	newOut.SeedSeq(rec.OutSeq)
	newOut.SeedBuffer(rec.Tail)
	p.moveConsumers(t, n, oldRef, newOut)

	// 4. Start each sub-interior: the moved children's bindings change
	// consumer and resume from the cut (closing the old instance's
	// readers as a side effect — once the last closes, the old instance
	// flushes into the now-abandoned old channel and terminates). The
	// sub-interior starts with empty state: everything up to the cut
	// lives in the parent's captured snapshot, everything after replays
	// into the sub-interior. SeedConsumed pins the cut so a checkpoint
	// sweep racing the replay cannot record the cursors as 0.
	ev := SplitEvent{TaskID: t.ID, Operator: n.Label(), Peer: n.Peer, At: at}
	for _, m := range created {
		mOut := s.allocChannel(t, m.Peer, s.nextStreamID(m.Peer))
		t.refs[m], t.origRefs[m] = mOut.Ref(), mOut.Ref()
		queues := make([]*stream.Queue, len(m.Inputs))
		for i, c := range m.Inputs {
			var b *inputBinding
			for _, cand := range t.bindings {
				if cand.consumer == n && cand.child == c {
					b = cand
					break
				}
			}
			if b == nil {
				return ev, fmt.Errorf("peer: no binding for child %s of %s", c.Label(), n.Label())
			}
			ch, ok := s.nodeChannel(t, c)
			if !ok {
				return ev, fmt.Errorf("peer: input channel of %s not found", m.Label())
			}
			b.consumer = m
			queues[i] = p.resubscribeInput(t, b, ch, m.Peer, cut[c]+1)
		}
		proc, err := p.makeProc(m)
		if err != nil {
			return ev, err
		}
		h := s.run(proc, queues, operators.ChannelPublish(mOut))
		for i, c := range m.Inputs {
			h.SeedConsumed(i, cut[c])
		}
		t.handles = append(t.handles, h)
		t.procs[m] = &procInstance{proc: proc, handle: h}
		ev.Keys = append(ev.Keys, m.AggKey)
		ev.Hosts = append(ev.Hosts, m.Peer)
	}

	// 5. Restart the interior over the sub-interior streams, restored
	// from the captured state. The sub-interior channels are fresh and
	// unpublished, so plain from-now subscriptions lose nothing.
	mb := make([]*inputBinding, 0, len(created))
	for _, m := range created {
		mCh, ok := s.Channel(t.refs[m])
		if !ok {
			return ev, fmt.Errorf("peer: sub-interior channel of %s not found", m.Label())
		}
		mb = append(mb, p.subscribeInput(t, n, m, mCh, n.Peer))
	}
	proc, err := p.makeProc(n)
	if err != nil {
		return ev, err
	}
	if rec.State != nil {
		if sn, ok := proc.(operators.Snapshotter); ok {
			if err := sn.Restore(rec.State); err != nil {
				return ev, fmt.Errorf("peer: restoring %s across the split: %w", n.Label(), err)
			}
		}
	}
	queues := make([]*stream.Queue, len(mb))
	for i, b := range mb {
		queues[i] = b.queue
	}
	h := s.run(proc, queues, operators.ChannelPublish(newOut))
	t.handles = append(t.handles, h)
	t.procs[n] = &procInstance{proc: proc, handle: h}
	s.retire(t, n, oldRef, newOut.Ref())

	// 6. Make the new shape durable now: the pre-split checkpoint's arity
	// no longer matches, so until this sweep lands a crash would
	// cold-restart the interior without its pre-cut state.
	s.CheckpointNow()
	s.mu.Lock()
	s.splitLog = append(s.splitLog, ev)
	s.mu.Unlock()

	// 7. Re-derive placement tree-wide. The split pinned only its own
	// sub-interiors to their DHT homes, but adding keys moves the
	// bounded-load running caps, so other interiors' derived homes may
	// have shifted; migrate them now instead of leaving the invariant
	// broken until the next failover.
	s.RebalanceAggTrees(s.Net.Clock().Now())
	return ev, nil
}

// SplitEvents returns the audit log of every completed interior split,
// whether actuated directly or by the re-chunking controller.
func (s *System) SplitEvents() []SplitEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SplitEvent(nil), s.splitLog...)
}
