package peer

import (
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/stream"
)

// The failover invariants (docs/REPLAY.md), checked on a quiesced system
// after every membership change:
//  1. every binding of a live, non-degraded task reads a usable channel;
//  2. each ChannelIn node's Channel equals its binding's source;
//  3. every binding cursor is at or below its provider's Seq();
//  4. every aggregation interior on a live host sits on its AggPlacements
//     host — after a planned change for all of them, after a crash for
//     the interiors that failover moved.
func assertInvariants(t testing.TB, s *System, placed func(*algebra.Node) bool) {
	t.Helper()
	s.Quiesce()
	for _, p := range s.livePeers() {
		for _, task := range sortedTasks(p) {
			degraded := len(task.Degraded()) > 0
			for _, b := range task.bindings {
				ref := b.src.Ref()
				if !degraded && !s.usable(ref) {
					t.Errorf("invariant 1: %s: %s reads unusable %v (alive %v, stale %v)",
						task.ID, b.consumer.Label(), ref, s.Net.Alive(ref.PeerID), s.isStale(ref))
				}
				if b.child.Op == algebra.OpChannelIn && b.child.Channel != ref {
					t.Errorf("invariant 2: %s: channel-in names %v, its binding reads %v", task.ID, b.child.Channel, ref)
				}
				if b.cursor != nil && b.cursor.Next()-1 > b.src.Seq() {
					t.Errorf("invariant 3: %s: %s cursor at %d, provider %v at %d",
						task.ID, b.consumer.Label(), b.cursor.Next()-1, ref, b.src.Seq())
				}
			}
			desired := s.AggPlacements(task.Plan)
			task.Plan.Walk(func(n *algebra.Node) {
				if n.AggKey == "" || !s.Net.Alive(n.Peer) || !placed(n) {
					return
				}
				if want := desired[n.AggKey]; want != "" && want != n.Peer {
					t.Errorf("invariant 4: %s: interior %s on %s, placement says %s", task.ID, n.AggKey, n.Peer, want)
				}
			})
		}
	}
}

// everyInterior scopes invariant 4 to the whole plan (planned changes).
func everyInterior(*algebra.Node) bool { return true }

// interiorHosts snapshots every deployed aggregation interior's host.
func interiorHosts(s *System) map[*algebra.Node]string {
	out := map[*algebra.Node]string{}
	for _, name := range s.Peers() {
		for _, task := range s.Peer(name).Tasks() {
			task.Plan.Walk(func(n *algebra.Node) {
				if n.AggKey != "" {
					out[n] = n.Peer
				}
			})
		}
	}
	return out
}

// failChecked is FailPeer followed by the invariants, with invariant 4
// scoped to the interiors this failover moved: the crash path re-derives
// placement only for what it migrates.
func failChecked(t testing.TB, s *System, dead string, at time.Duration) []FailoverEvent {
	t.Helper()
	before := interiorHosts(s)
	evs := s.FailPeer(dead, at)
	assertInvariants(t, s, func(n *algebra.Node) bool {
		host, ok := before[n]
		return ok && host != n.Peer
	})
	return evs
}

// leaveChecked is LeavePeer followed by the invariants when it succeeds.
func leaveChecked(t testing.TB, s *System, name string) ([]FailoverEvent, error) {
	t.Helper()
	evs, err := s.LeavePeer(name)
	if err == nil {
		assertInvariants(t, s, everyInterior)
	}
	return evs, err
}

// joinChecked is JoinPeer followed by the invariants when it succeeds.
func joinChecked(t testing.TB, s *System, name, seed string) (*Peer, error) {
	t.Helper()
	p, err := s.JoinPeer(name, seed)
	if err == nil {
		assertInvariants(t, s, everyInterior)
	}
	return p, err
}

// rejoinChecked is RejoinPeer followed by the invariants.
func rejoinChecked(t testing.TB, s *System, name string) []FailoverEvent {
	t.Helper()
	evs := s.RejoinPeer(name)
	assertInvariants(t, s, everyInterior)
	return evs
}

// splitChecked is SplitInterior followed by the invariants when it
// succeeds.
func splitChecked(t testing.TB, s *System, task *Task, key string) (SplitEvent, error) {
	t.Helper()
	ev, err := s.SplitInterior(task, key)
	if err == nil {
		assertInvariants(t, s, everyInterior)
	}
	return ev, err
}

// tapPlan reads the channel ch, carrying the stream origin, through a
// forwarder at host and publishes it there as channelID: a consumer in a
// task of its own, the way reused streams and replicas are consumed.
func tapPlan(ch, origin stream.Ref, host, channelID string) *algebra.Node {
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: ch.PeerID, Channel: ch, Origin: origin, Schema: []string{"e"}}
	fwd := &algebra.Node{Op: algebra.OpUnion, Peer: host, Inputs: []*algebra.Node{chin}, Schema: []string{"e"}}
	return &algebra.Node{
		Op: algebra.OpPublish, Peer: host, Inputs: []*algebra.Node{fwd},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channelID},
	}
}

// TestCrashRebindsConsumerOfNonAdoptedReplica: the relay's output has two
// announced replicas, and a second task reads the one failover will not
// adopt. When the relay's host crashes the replacement adopts the other
// replica, and the non-adopted one loses its feed (it is marked stale
// with its origin). Its consumer must be re-bound to the live provider
// and resume from its cursor: every item arrives exactly once.
func TestCrashRebindsConsumerOfNonAdoptedReplica(t *testing.T) {
	const events = 20
	r := newRelayRig(t, replayOptions())
	sys := r.sys
	sys.MustAddPeer("w3")
	sys.MustAddPeer("sub")
	sys.Net.AddLoad("sub", 100)
	var relayRef stream.Ref
	for n, ref := range r.task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			relayRef = ref
		}
	}
	for _, host := range []string{"w2", "w3"} {
		if _, err := sys.AnnounceReplica(relayRef, host); err != nil {
			t.Fatal(err)
		}
	}
	// Failover adopts the first usable replica in record order; bind the
	// consumer to the last one.
	reps, _, err := sys.DB.Replicas("sub", relayRef)
	if err != nil || len(reps) != 2 {
		t.Fatalf("replicas of %v = %v (%v)", relayRef, reps, err)
	}
	reader, err := sys.Peer("sub").DeployPlan(tapPlan(reps[len(reps)-1], relayRef, "sub", "out2"))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < events/2; i++ {
		r.emit()
	}
	sys.Step(time.Second)
	evs := failChecked(t, sys, "w1", sys.Net.Clock().Now())
	adopted := false
	for _, ev := range evs {
		if ev.Operator == "∪" && ev.ViaReplica && ev.To == reps[0].PeerID {
			adopted = true
		}
	}
	if !adopted {
		t.Fatalf("relay did not adopt replica %v: %+v", reps[0], evs)
	}
	for i := events / 2; i < events; i++ {
		r.emit()
	}
	for i := 0; i < 60 && reader.Results().Len() < events; i++ {
		sys.Step(time.Second)
	}
	r.srcCh.Close()
	r.task.Stop()
	reader.Stop()
	assertExactlyOnce(t, r.task, events)
	assertExactlyOnce(t, reader, events)
}

// TestDeathDeclaredAfterRecovery: a detector may confirm a death after
// the peer already came back — crash, recover, and the failover fires
// anyway. FailPeer takes the recovered relay down again and migrates it;
// the subscriber must still see every item exactly once.
func TestDeathDeclaredAfterRecovery(t *testing.T) {
	const events = 30
	r := newRelayRig(t, replayOptions())
	sys := r.sys
	for i := 0; i < 10; i++ {
		r.emit()
	}
	sys.Step(time.Second)
	sys.Net.Crash("w1") //nolint:errcheck // known node
	for i := 0; i < 5; i++ {
		r.emit() // lost on the src→w1 link while w1 is down
	}
	sys.Net.Recover("w1") //nolint:errcheck // known node
	for i := 0; i < 5; i++ {
		r.emit()
	}
	sys.Step(time.Second) // anti-entropy refills the outage gap
	failChecked(t, sys, "w1", sys.Net.Clock().Now())
	if host := relayHost(r.task); host == "w1" {
		t.Fatal("relay still on w1 after its death was declared")
	}
	for i := 0; i < 10; i++ {
		r.emit()
	}
	r.syncUntil(events)
	assertInvariants(t, sys, everyInterior)
	r.srcCh.Close()
	r.task.Stop()
	assertExactlyOnce(t, r.task, events)
}
