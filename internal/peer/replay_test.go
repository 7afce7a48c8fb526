package peer

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// replayOptions returns DefaultConfig with the lossless-failover layer
// on.
func replayOptions() Config {
	opts := DefaultConfig()
	opts.Replay.Buffer = 4096
	opts.Replay.CheckpointInterval = 2 * time.Second
	return opts
}

// relayRig is the canonical exactly-once topology: a hand-fed source
// channel at src, a relay operator at w1 (the peer the tests kill),
// publishing at mgr, supervised from mon.
type relayRig struct {
	sys   *System
	srcCh *stream.Channel
	task  *Task
	sup   *Supervisor
	next  int
}

func newRelayRig(t *testing.T, opts Config) *relayRig {
	t.Helper()
	sys := MustSystem(opts)
	for _, name := range []string{"src", "mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"src", "mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	srcCh := stream.NewChannel("src", "ev")
	sys.registerChannel(srcCh)
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: srcCh.Ref(), Schema: []string{"e"}}
	relay := &algebra.Node{Op: algebra.OpUnion, Peer: "w1", Inputs: []*algebra.Node{chin}, Schema: []string{"e"}}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{relay},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "out"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	sup := sys.StartSupervisor("mon", DetectorOptions{Interval: time.Second, Suspicion: 2 * time.Second})
	return &relayRig{sys: sys, srcCh: srcCh, task: task, sup: sup}
}

// emit publishes the next uniquely-identified event into the source.
func (r *relayRig) emit() {
	r.next++
	tree := xmltree.Elem("e")
	tree.SetAttr("id", fmt.Sprintf("%d", r.next))
	r.srcCh.Publish(stream.Item{Tree: tree, Time: r.sys.Net.Clock().Now()})
}

// syncUntil steps the system (letting anti-entropy sweeps and pending
// detections run) until the task holds at least want results, at most
// 60 virtual seconds.
func (r *relayRig) syncUntil(want int) {
	for i := 0; i < 60 && r.task.Results().Len() < want; i++ {
		r.sys.Step(time.Second)
	}
}

// assertExactlyOnce drains the stopped task's results and checks each id
// in [1, n] arrived exactly once.
func assertExactlyOnce(t *testing.T, task *Task, n int) {
	t.Helper()
	counts := make(map[string]int)
	for _, it := range task.Results().Drain() {
		counts[it.Tree.AttrOr("id", "?")]++
	}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("%d", i)
		switch counts[id] {
		case 1:
		case 0:
			t.Errorf("event %s missing", id)
		default:
			t.Errorf("event %s delivered %d times", id, counts[id])
		}
	}
	if len(counts) != n {
		t.Errorf("result id set has %d entries, want %d (%v)", len(counts), n, counts)
	}
}

// TestExactlyOnceAcrossFaultMixes is the end-to-end exactly-once
// property test: 20 uniquely-numbered events flow through the relay
// pipeline while the table's fault mix strikes — per-link drop
// probability, extra delay, a partition that heals, a crash that forces
// a migration, and their combination. With replay buffers, cursors and
// checkpoints on, the subscriber must see every sequence number exactly
// once: no duplicate, no gap. Run with -race and -shuffle=on.
func TestExactlyOnceAcrossFaultMixes(t *testing.T) {
	const events = 20
	cases := []struct {
		name string
		// at is called after event i (1-based) has been driven.
		at         func(r *relayRig, i int)
		wantReplay bool
		migrates   bool
	}{
		{name: "no faults"},
		{
			name: "lossy links",
			at: func(r *relayRig, i int) {
				if i == 1 {
					r.sys.Net.SetDrop("src", "w1", 0.5)
					r.sys.Net.SetDrop("w1", "mgr", 0.5)
				}
			},
			wantReplay: true,
		},
		{
			name: "slow links",
			at: func(r *relayRig, i int) {
				if i == 1 {
					r.sys.Net.SetExtraDelay("src", "w1", 1500*time.Millisecond)
					r.sys.Net.SetExtraDelay("w1", "mgr", 900*time.Millisecond)
				}
			},
		},
		{
			name: "partition heals",
			at: func(r *relayRig, i int) {
				// src cannot reach the relay for a third of the run; the
				// monitor sees both sides, so no migration happens and the
				// sweep must repair the hole after the heal.
				if i == 7 {
					r.sys.Net.Partition([]string{"src"}, []string{"w1"})
				}
				if i == 14 {
					r.sys.Net.Heal()
				}
			},
			wantReplay: true,
		},
		{
			name: "crash and migrate",
			at: func(r *relayRig, i int) {
				if i == 7 {
					r.sys.Net.Crash("w1") //nolint:errcheck // known node
				}
				if i == 15 {
					r.sys.Net.Recover("w1") //nolint:errcheck // known node
				}
			},
			wantReplay: true,
			migrates:   true,
		},
		{
			name: "lossy links and crash",
			at: func(r *relayRig, i int) {
				if i == 1 {
					for _, link := range [][2]string{{"src", "w1"}, {"w1", "mgr"}, {"src", "w2"}, {"w2", "mgr"}} {
						r.sys.Net.SetDrop(link[0], link[1], 0.4)
					}
				}
				if i == 7 {
					r.sys.Net.Crash("w1") //nolint:errcheck // known node
				}
			},
			wantReplay: true,
			migrates:   true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRelayRig(t, replayOptions())
			for i := 1; i <= events; i++ {
				r.emit()
				r.sys.Step(time.Second)
				if c.at != nil {
					c.at(r, i)
				}
			}
			r.syncUntil(events)
			if c.migrates {
				if got := relayHost(r.task); got != "w2" {
					t.Errorf("relay host = %q, want w2 after migration", got)
				}
				if len(r.sup.Deaths()) == 0 {
					t.Error("crash never detected")
				}
			}
			if c.wantReplay && r.sys.ReplayedItems() == 0 {
				t.Error("fault mix should have forced retransmissions")
			}
			if got := r.task.Degraded(); len(got) != 0 {
				t.Errorf("task degraded: %v", got)
			}
			r.task.Stop()
			assertExactlyOnce(t, r.task, events)
		})
	}
}

// TestCheckpointTailSurvivesPartitionedCrash: outputs published while
// the downstream consumer was partitioned away are not yet delivered
// when the producer crashes — and the producer's retention buffer dies
// with it. The checkpoint's undelivered-output tail must carry them to
// the replacement channel, or the consumer's cursor would SkipTo past a
// permanent hole. (The relay keeps consuming from the source during the
// partition, so the checkpoint's OutSeq covers the undelivered items.)
func TestCheckpointTailSurvivesPartitionedCrash(t *testing.T) {
	const events = 15
	r := newRelayRig(t, replayOptions())
	var relayRef stream.Ref
	for n, ref := range r.task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			relayRef = ref
		}
	}
	for i := 1; i <= 9; i++ {
		r.emit()
		r.sys.Step(time.Second)
		if i == 4 {
			// The relay can still hear the source (and the monitor hears
			// the relay), but nothing reaches the publisher.
			r.sys.Net.Partition([]string{"w1"}, []string{"mgr"})
		}
	}
	// Quiesce the relay and take a *fresh* checkpoint: its input cursor
	// and OutSeq now cover the whole partition window, so only the
	// checkpoint's undelivered-output tail can carry items 5..9 past the
	// crash (input replay resumes after them, and the producer's buffer
	// dies with the host).
	relayCh, _ := r.sys.Channel(relayRef)
	r.sys.Quiesce()
	if relayCh.Seq() != 9 {
		t.Fatalf("relay only published %d/9 before the crash", relayCh.Seq())
	}
	r.sys.CheckpointNow()
	r.sys.Net.Crash("w1") //nolint:errcheck // known node
	for i := 10; i <= events; i++ {
		r.emit()
		r.sys.Step(time.Second)
		if i == 12 {
			r.sys.Net.Heal()
		}
	}
	r.syncUntil(events)
	if len(r.sup.Deaths()) == 0 {
		t.Fatal("relay crash never detected")
	}
	r.task.Stop()
	assertExactlyOnce(t, r.task, events)
}

// TestColdAdoptionDoesNotDuplicate: replay on, checkpointing OFF, and
// the migrated operator adopts an announced replica channel that
// already mirrored the pre-crash output. The cold restart replays the
// full input history and re-publishes everything into the adopted
// channel — which must rewind to sequence 0 first, so the re-emission
// lands under the original numbers and downstream cursors drop it. (A
// regression here delivers the entire pre-crash stream twice.)
func TestColdAdoptionDoesNotDuplicate(t *testing.T) {
	const events = 12
	opts := replayOptions()
	opts.Replay.CheckpointInterval = 0 // no checkpoints: cold restarts only
	r := newRelayRig(t, opts)
	var relayRef stream.Ref
	for n, ref := range r.task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			relayRef = ref
		}
	}
	if _, err := r.sys.AnnounceReplica(relayRef, "w2"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		r.emit()
		r.sys.Step(time.Second)
	}
	// Quiesce so the replica has mirrored the full pre-crash output: the
	// cold restart's re-emission then maximally overlaps what downstream
	// cursors already saw — the worst case for duplication.
	wantResults(t, r.sys, r.task, 7)
	r.sys.Net.Crash("w1") //nolint:errcheck // known node
	for i := 8; i <= events; i++ {
		r.emit()
		r.sys.Step(time.Second)
	}
	r.syncUntil(events)
	var adopted FailoverEvent
	for _, e := range r.sup.Events() {
		if e.From == "w1" && e.Repaired() {
			adopted = e
		}
	}
	if !adopted.ViaReplica || adopted.To != "w2" {
		t.Fatalf("failover = %+v, want adoption of the w2 replica", adopted)
	}
	r.task.Stop()
	assertExactlyOnce(t, r.task, events)
}

// TestCheckpointRestoresDistinctState: duplicate suppression must
// survive a migration. The retention buffer is deliberately smaller than
// the stream history, so only the replicated checkpoint — not a full
// input replay — can carry the Distinct memory to the new host:
// duplicates of the earliest items re-driven after the migration arrive
// with fresh sequence numbers and would re-emit from a cold instance.
func TestCheckpointRestoresDistinctState(t *testing.T) {
	opts := replayOptions()
	opts.Replay.Buffer = 4 // ≪ history: full replay cannot rebuild the state
	opts.Replay.CheckpointInterval = time.Second
	sys := MustSystem(opts)
	for _, name := range []string{"src", "mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"src", "mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	srcCh := stream.NewChannel("src", "ev")
	sys.registerChannel(srcCh)
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: srcCh.Ref(), Schema: []string{"e"}}
	dist := &algebra.Node{Op: algebra.OpDistinct, Peer: "w1", Inputs: []*algebra.Node{chin}, Schema: []string{"e"}}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{dist},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "uniq"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(id int) {
		tree := xmltree.Elem("e")
		tree.SetAttr("id", fmt.Sprintf("%d", id))
		srcCh.Publish(stream.Item{Tree: tree, Time: sys.Net.Clock().Now()})
	}

	for i := 1; i <= 6; i++ {
		emit(i)
		sys.Step(time.Second)
	}
	wantResults(t, sys, task, 6)
	sys.Step(time.Second) // a checkpoint capturing the full Distinct memory
	sys.Step(time.Second)

	events := sys.FailPeer("w1", 0)
	repaired := 0
	for _, e := range events {
		if e.Repaired() {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatalf("no repairs in %+v", events)
	}
	// Duplicates of the oldest items (long trimmed from the 4-item
	// retention buffer) plus two genuinely new items.
	for _, id := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		emit(id)
		sys.Step(time.Second)
	}
	for i := 0; i < 60 && task.Results().Len() < 8; i++ {
		sys.Step(time.Second)
	}
	task.Stop()
	assertExactlyOnce(t, task, 8)
}

// TestPublisherRedeploysOnHostDeath: PR 1 marked a publisher stranded on
// a dead host Degraded; now the fan-out moves. The named channel reopens
// at a live peer under the same ChannelID, the manager's Results() queue
// keeps filling without duplicates, the human-facing sinks keep
// appending, and an external consumer of the named channel is re-bound
// through the chained replica record.
func TestPublisherRedeploysOnHostDeath(t *testing.T) {
	sys := MustSystem(replayOptions())
	for _, name := range []string{"src", "mgr", "pub", "far", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"src", "mgr", "far"} {
		sys.Net.AddLoad(busy, 100)
	}
	srcCh := stream.NewChannel("src", "ev")
	sys.registerChannel(srcCh)
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: srcCh.Ref(), Schema: []string{"e"}}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "pub", Inputs: []*algebra.Node{chin},
		Schema: []string{"e"},
		Publish: &algebra.PublishSpec{
			ChannelID: "out",
			Targets: []p2pml.ByTarget{
				{Kind: p2pml.ByEmail, Name: "ops@mgr"},
				{Kind: p2pml.BySubscribe, Peer: "far", ChannelID: "inbox"},
			},
		},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	oldNamed := task.ResultChannel()
	if oldNamed.PeerID != "pub" {
		t.Fatalf("named channel at %s, want pub", oldNamed.PeerID)
	}

	// An external task mirrors the named channel.
	mirror := &algebra.Node{
		Op: algebra.OpPublish, Peer: "far", Schema: []string{"e"},
		Publish: &algebra.PublishSpec{ChannelID: "mirror"},
		Inputs: []*algebra.Node{{
			Op: algebra.OpChannelIn, Peer: oldNamed.PeerID, Schema: []string{"e"},
			Channel: oldNamed,
		}},
	}
	t2, err := sys.Peer("far").DeployPlan(mirror)
	if err != nil {
		t.Fatal(err)
	}

	emit := func(id int) {
		tree := xmltree.Elem("e")
		tree.SetAttr("id", fmt.Sprintf("%d", id))
		srcCh.Publish(stream.Item{Tree: tree, Time: sys.Net.Clock().Now()})
	}
	for i := 1; i <= 3; i++ {
		emit(i)
		sys.Step(time.Second)
	}
	wantResults(t, sys, task, 3)
	wantResults(t, sys, t2, 3)

	events := sys.FailPeer("pub", 0)
	repaired := 0
	for _, e := range events {
		if e.Repaired() {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatalf("publisher not repaired: %+v", events)
	}
	if got := task.Degraded(); len(got) != 0 {
		t.Fatalf("task degraded: %v", got)
	}
	newNamed := task.ResultChannel()
	if newNamed.PeerID == "pub" || newNamed.StreamID != "out" {
		t.Fatalf("named channel after failover = %v, want out@<live peer>", newNamed)
	}
	for i := 4; i <= 6; i++ {
		emit(i)
		sys.Step(time.Second)
	}
	for i := 0; i < 60 && (task.Results().Len() < 6 || t2.Results().Len() < 6); i++ {
		sys.Step(time.Second)
	}
	task.Stop()
	t2.Stop()
	assertExactlyOnce(t, task, 6)
	assertExactlyOnce(t, t2, 6)
	if got := task.Mailbox.Len(); got == 0 {
		t.Error("email sink stopped after the publisher migrated")
	}
	// The BySubscribe target's incoming queue is gated by its own
	// cursor: the rebuilt fan-out's re-emissions must not duplicate what
	// the target already received.
	inbox := sys.Peer("far").Incoming("inbox")
	counts := make(map[string]int)
	for {
		it, ok := inbox.TryPop()
		if !ok {
			break
		}
		if !it.EOS() {
			counts[it.Tree.AttrOr("id", "?")]++
		}
	}
	if len(counts) != 6 {
		t.Errorf("subscribe-target received %d distinct ids, want 6 (%v)", len(counts), counts)
	}
	for id, n := range counts {
		if n != 1 {
			t.Errorf("subscribe-target received id %s %d times", id, n)
		}
	}
}

// TestDynAlerterDegradesWithoutReplay: with the replay layer off there
// is no membership history to reconstruct the active set from, so the
// task must visibly degrade (PR 1 semantics) rather than report a repair
// that silently stopped monitoring every already-joined peer.
func TestDynAlerterDegradesWithoutReplay(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	for _, name := range []string{"mgr", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	driver := algebra.NewAlerter("areRegistered", "membership", "mgr", "j", nil)
	dyn := &algebra.Node{
		Op: algebra.OpDynAlerter, Peer: "w1", Inputs: []*algebra.Node{driver},
		Schema:  []string{"c"},
		Alerter: &algebra.AlerterSpec{Func: "inCOM", Kind: "ws-in"},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{dyn},
		Schema: []string{"c"}, Publish: &algebra.PublishSpec{ChannelID: "watch"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	sys.FailPeer("w1", 0)
	if got := task.Degraded(); len(got) != 1 {
		t.Fatalf("degraded = %v, want the dyn-alerter manager", got)
	}
	task.Stop()
}

// TestDynAlerterManagerRedeploysOnHostDeath: killing the host of an
// inCOM($j) dynamic-alerter manager no longer degrades the task. The
// new manager replays the membership stream from the driver channel's
// retention buffer, reconstructs the active set, re-attaches the hooks,
// and keeps capturing calls at the monitored peers.
func TestDynAlerterManagerRedeploysOnHostDeath(t *testing.T) {
	sys := MustSystem(replayOptions())
	for _, name := range []string{"mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	driver := algebra.NewAlerter("areRegistered", "membership", "mgr", "j", nil)
	dyn := &algebra.Node{
		Op: algebra.OpDynAlerter, Peer: "w1", Inputs: []*algebra.Node{driver},
		Schema:  []string{"c"},
		Alerter: &algebra.AlerterSpec{Func: "inCOM", Kind: "ws-in"},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{dyn},
		Schema: []string{"c"}, Publish: &algebra.PublishSpec{ChannelID: "watch"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	// svc joins after deployment: the manager attaches an alerter there.
	svc := sys.MustAddPeer("svc")
	svc.Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	caller := sys.MustAddPeer("caller")
	sys.Quiesce()
	if got := task.DynEventsProcessed(); got != 2 { // svc + caller joins
		t.Fatalf("membership events applied = %d, want 2", got)
	}
	if _, err := caller.Endpoint().Invoke("svc", "ping", nil); err != nil {
		t.Fatal(err)
	}
	wantResults(t, sys, task, 1)

	before := task.DynEventsProcessed()
	events := sys.FailPeer("w1", 0)
	repaired := false
	for _, e := range events {
		if e.Repaired() && e.To != "" {
			repaired = true
		}
	}
	if !repaired {
		t.Fatalf("dyn-alerter manager not repaired: %+v", events)
	}
	if got := task.Degraded(); len(got) != 0 {
		t.Fatalf("task degraded: %v", got)
	}
	var dynHost string
	task.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpDynAlerter {
			dynHost = n.Peer
		}
	})
	if dynHost == "w1" || dynHost == "" {
		t.Fatalf("dyn-alerter manager still at %q", dynHost)
	}
	// The replayed membership history (svc join, caller join, w1's own
	// departure) rebuilds the active set before new traffic flows.
	sys.Quiesce()
	if got := task.DynEventsProcessed(); got != before+3 {
		t.Fatalf("membership events applied = %d, want %d", got, before+3)
	}
	if _, err := caller.Endpoint().Invoke("svc", "ping", nil); err != nil {
		t.Fatal(err)
	}
	wantResults(t, sys, task, 2)
	task.Stop()
	if got := len(task.Results().Drain()); got != 2 {
		t.Fatalf("results = %d, want 2 (one call per epoch, no duplicates)", got)
	}
}
