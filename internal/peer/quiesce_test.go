package peer

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// TestQuiesceIsExactAcrossAChain: items pushed into a chain of three
// relays on three peers plus the publisher are all accepted by every
// operator once Quiesce returns — ItemsProcessed is an exact count, not
// a lower bound — round after round, with no Step and no sleep.
func TestQuiesceIsExactAcrossAChain(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	for _, name := range []string{"src", "mgr", "w1", "w2", "w3"} {
		sys.MustAddPeer(name)
	}
	src := stream.NewChannel("src", "ev")
	sys.registerChannel(src)
	var plan *algebra.Node = &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: src.Ref(), Schema: []string{"e"}}
	for _, host := range []string{"w1", "w2", "w3"} {
		plan = &algebra.Node{Op: algebra.OpUnion, Peer: host, Inputs: []*algebra.Node{plan}, Schema: []string{"e"}}
	}
	plan = &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{plan},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "out"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	const batch, operators = 50, 4
	for round := 1; round <= 5; round++ {
		for i := 0; i < batch; i++ {
			src.Publish(stream.Item{Tree: xmltree.Elem("e")})
		}
		sys.Quiesce()
		if got, want := task.ItemsProcessed(), uint64(operators*batch*round); got != want {
			t.Fatalf("round %d: items processed = %d, want exactly %d", round, got, want)
		}
		if got, want := task.Results().Len(), batch*round; got != want {
			t.Fatalf("round %d: results = %d, want exactly %d", round, got, want)
		}
		if n := sys.inflight.Len(); n != 0 {
			t.Fatalf("round %d: in-flight count %d after Quiesce", round, n)
		}
	}
	task.Stop()
	if n := sys.inflight.Len(); n != 0 {
		t.Fatalf("in-flight count %d after Stop (eos must be released)", n)
	}
}

// TestQuiesceAfterFailoverTeardown: the relay instance on w1 is replaced
// by failover while items are still queued for it. Its closed input
// queue and every item it still held must leave the in-flight count,
// so Quiesce returns and the count reads zero; replay then restores
// exactly-once delivery.
func TestQuiesceAfterFailoverTeardown(t *testing.T) {
	const events = 200
	r := newRelayRig(t, replayOptions())
	for i := 0; i < events; i++ {
		r.emit()
	}
	if evs := r.sys.FailPeer("w1", r.sys.Net.Clock().Now()); len(evs) == 0 {
		t.Fatal("no failover repair")
	}
	r.sys.Quiesce()
	if n := r.sys.inflight.Len(); n != 0 {
		t.Fatalf("in-flight count %d after the torn-down instance drained", n)
	}
	r.syncUntil(events)
	r.task.Stop()
	if n := r.sys.inflight.Len(); n != 0 {
		t.Fatalf("in-flight count %d after Stop", n)
	}
	assertExactlyOnce(t, r.task, events)
}

// TestQuiesceStepDeterministic: with Step quiescing at its phase
// boundaries, a crash-and-replay run is a function of its inputs: two
// runs record the same failover events and replay counts.
func TestQuiesceStepDeterministic(t *testing.T) {
	run := func() string {
		r := newRelayRig(t, replayOptions())
		for i := 1; i <= 12; i++ {
			r.emit()
			r.sys.Step(time.Second)
			if i == 5 {
				r.sys.Net.Crash("w1") //nolint:errcheck // known node
			}
		}
		r.syncUntil(12)
		r.task.Stop()
		return fmt.Sprintf("%+v replayed=%d results=%d", r.sup.Events(), r.sys.ReplayedItems(), r.task.Results().Len())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same inputs, different runs:\n%s\n%s", a, b)
	}
}
