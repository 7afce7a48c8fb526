package peer

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/xmltree"
)

// TestGroupClauseEndToEnd drives the Edos statistics shape through the
// P2PML extension clause: per-mirror download counts per window.
func TestGroupClauseEndToEnd(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	noc := sys.MustAddPeer("noc")
	for _, m := range []string{"mirror-0", "mirror-1"} {
		mp := sys.MustAddPeer(m)
		mp.Endpoint().Register("GetPackage", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("pkg"), nil
		}, nil)
	}
	client := sys.MustAddPeer("client")

	task, err := noc.Subscribe(`for $c in inCOM(<p>mirror-0</p><p>mirror-1</p>)
where $c.callMethod = "GetPackage"
return <dl mirror="{$c.callee}"/>
group on "mirror" window "1m"
by publish as channel "rates"`)
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: 3 downloads from mirror-0, 1 from mirror-1.
	for i := 0; i < 3; i++ {
		client.Endpoint().Invoke("mirror-0", "GetPackage", nil)
	}
	client.Endpoint().Invoke("mirror-1", "GetPackage", nil)
	sys.Net.Clock().Advance(2 * time.Minute)
	// Window 2: 2 downloads from mirror-1.
	client.Endpoint().Invoke("mirror-1", "GetPackage", nil)
	client.Endpoint().Invoke("mirror-1", "GetPackage", nil)

	task.Stop()
	got := task.Results().Drain()
	counts := map[string]string{}
	for _, it := range got {
		key := fmt.Sprintf("w%s/%s", it.Tree.AttrOr("window", "?"), it.Tree.AttrOr("key", "?"))
		counts[key] = it.Tree.AttrOr("count", "")
	}
	if len(got) != 3 {
		t.Fatalf("groups = %d (%v), want 3", len(got), counts)
	}
	if counts["w0/http://mirror-0"] != "3" || counts["w0/http://mirror-1"] != "1" {
		t.Errorf("window 0 counts = %v", counts)
	}
	if counts["w2/http://mirror-1"] != "2" {
		t.Errorf("window 2 counts = %v", counts)
	}
}

// TestGroupCheckpointRestoreMidWindow migrates a flat Group aggregator
// whose host crashes with windows open: the replicated checkpoint
// (window counts + Late bookkeeping) restores at the new host, the
// replayed input suffix re-accumulates, and the final records are
// byte-identical to an undisturbed run — identical window boundaries,
// identical counts.
func TestGroupCheckpointRestoreMidWindow(t *testing.T) {
	const sources, workers, events = 4, 3, 40
	baseSys, baseTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, baseSys, sources, events, time.Second)
	want := groupRecords(t, baseTask)
	if len(want) == 0 {
		t.Fatal("baseline produced no records")
	}

	opts := DefaultConfig()
	opts.Replay.Buffer = 4096
	opts.Replay.CheckpointInterval = 2 * time.Second
	sys, task := aggWorld(t, opts, sources, workers)
	client := sys.Peer("client")
	groupHost := func() string {
		host := ""
		task.Plan.Walk(func(n *algebra.Node) {
			if n.Op == algebra.OpGroup {
				host = n.Peer
			}
		})
		return host
	}
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Step(time.Second)
		if i == 25 { // mid-window: 25s into 10s windows
			victim := groupHost()
			evs := sys.FailPeer(victim, sys.Net.Clock().Now())
			repaired := false
			for _, ev := range evs {
				repaired = repaired || ev.Repaired()
			}
			if !repaired {
				t.Fatalf("group migration failed: %v", evs)
			}
			if got := groupHost(); got == victim {
				t.Fatalf("group still on the dead %s", got)
			}
		}
	}
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	got := groupRecords(t, task)
	if !equalRecords(got, want) {
		t.Errorf("post-migration records differ from the undisturbed run:\n got: %v\nwant: %v", got, want)
	}
}

func TestGroupClauseParsingErrors(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	p := sys.MustAddPeer("p")
	bad := []string{
		`for $e in inCOM(<p>m</p>) return $e group on "k" window "nonsense" by channel X`,
		`for $e in inCOM(<p>m</p>) return $e group "k" window "1m" by channel X`,
		`for $e in inCOM(<p>m</p>) return $e group on "k" by channel X`,
	}
	for _, src := range bad {
		if _, err := p.Subscribe(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}
