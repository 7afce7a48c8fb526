package peer

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/stream"
)

// FuzzFailoverSchedule drives a seeded interleaving of crashes (some
// declared only after the peer recovered), rejoins, graceful leaves,
// joins, interior splits and event steps against a replay-on aggregation
// tree whose output has two announced replicas: a second task reads the
// one a crash repair does not adopt, and a third reads the tree directly. The failover invariants are checked after every
// operation, and at the end every task must hold exactly the flat
// baseline's records. The committed corpus in testdata/fuzz runs with
// the ordinary tests; go test -fuzz FuzzFailoverSchedule explores more.
func FuzzFailoverSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		const sources, workers = 8, 4
		sys, task := aggWorld(t, splitConfig(4), sources, workers)
		root := task.Plan.Inputs[0]
		rootRef := task.StreamRefs()[root]
		var rep stream.Ref
		for _, host := range []string{"e0", "e1"} {
			sys.MustAddPeer(host)
			r, err := sys.AnnounceReplica(rootRef, host)
			if err != nil {
				t.Fatal(err)
			}
			if r.String() > rep.String() {
				rep = r // failover adopts the first in record order
			}
		}
		client := sys.Peer("client")
		viaReplica, err := client.DeployPlan(tapPlan(rep, rootRef, "client", "viaReplica"))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := client.DeployPlan(tapPlan(rootRef, rootRef, "client", "direct"))
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		driven := 0
		drive := func() {
			target := fmt.Sprintf("s%d", driven%sources)
			if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
				t.Fatalf("event %d: %v", driven, err)
			}
			driven++
			sys.Step(time.Second)
		}
		noInterior := func(*algebra.Node) bool { return false }
		var failed, left []string
		joins := 0
		// movable lists the live peers a schedule may take down: the
		// workers hosting interiors and the replica hosts, keeping two
		// workers up so the tree always has somewhere to go.
		movable := func() []string {
			var out []string
			live := 0
			for _, p := range sys.livePeers() {
				name := p.name
				if name[0] != 'w' && name[0] != 'e' {
					continue
				}
				if name[0] == 'w' {
					live++
				}
				out = append(out, name)
			}
			if live <= 2 {
				return nil
			}
			return out
		}
		for op := 0; op < 20; op++ {
			// Events flow between every two operations.
			drive()
			switch rng.Intn(7) {
			case 0, 1:
				for i := rng.Intn(2); i >= 0; i-- {
					drive()
				}
				assertInvariants(t, sys, noInterior)
			case 2:
				cands := movable()
				if len(cands) == 0 {
					continue
				}
				victim := cands[rng.Intn(len(cands))]
				if rng.Intn(2) == 0 {
					// Recovered before its death is declared.
					sys.Net.Crash(victim) //nolint:errcheck // known node
					drive()
					sys.Net.Recover(victim) //nolint:errcheck // known node
				}
				failChecked(t, sys, victim, sys.Net.Clock().Now())
				failed = append(failed, victim)
			case 3:
				if len(failed) == 0 {
					continue
				}
				i := rng.Intn(len(failed))
				rejoinChecked(t, sys, failed[i])
				failed = append(failed[:i], failed[i+1:]...)
			case 4:
				cands := movable()
				if len(cands) == 0 {
					continue
				}
				name := cands[rng.Intn(len(cands))]
				if _, err := leaveChecked(t, sys, name); err != nil {
					t.Fatal(err)
				}
				left = append(left, name)
			case 5:
				name := fmt.Sprintf("w%d", workers+joins)
				if len(left) > 0 && rng.Intn(2) == 0 {
					name, left = left[0], left[1:]
				} else {
					joins++
				}
				if _, err := joinChecked(t, sys, name, "mgr"); err != nil {
					t.Fatal(err)
				}
			case 6:
				var cands []*algebra.Node
				for _, n := range aggtree.Interiors(task.Plan) {
					if n.AggKey != "" && len(n.Inputs) >= 4 && sys.Net.Alive(n.Peer) {
						cands = append(cands, n)
					}
				}
				if len(cands) == 0 {
					continue
				}
				if _, err := splitChecked(t, sys, task, cands[rng.Intn(len(cands))].AggKey); err != nil {
					t.Fatal(err)
				}
			}
		}
		for driven < 2*sources {
			drive()
		}
		for i := 0; i < 8; i++ {
			sys.Step(time.Second)
		}
		assertInvariants(t, sys, noInterior)

		flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
		driveAgg(t, flatSys, sources, driven, time.Second)
		want := groupRecords(t, flatTask)
		for _, c := range []struct {
			name string
			task *Task
		}{{"tree", task}, {"replica reader", viaReplica}, {"direct reader", direct}} {
			if got := groupRecords(t, c.task); !equalRecords(got, want) {
				t.Errorf("%s records differ from the flat baseline:\n got: %v\nwant: %v", c.name, got, want)
			}
		}
	})
}
