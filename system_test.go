package p2pm_test

import (
	"fmt"
	"testing"
	"time"

	"p2pm"
	"p2pm/internal/rss"
	"p2pm/internal/workload"
	"p2pm/internal/xmltree"
)

// TestEverythingTogether is the capstone integration test: one system
// running every subscription family at once — WS QoS joins, fault
// watching, RSS diffing, windowed grouping, dynamic membership, stream
// reuse and subsumption — while a mixed workload drives it. It guards
// against cross-feature interference that per-feature tests cannot see.
func TestEverythingTogether(t *testing.T) {
	sys := p2pm.MustSystem(p2pm.DefaultConfig())

	// --- monitored world ---
	meteo := sys.MustAddPeer("meteo.com")
	calls := 0
	meteo.Endpoint().Register("GetTemperature",
		func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.ElemText("temp", "21"), nil },
		func() time.Duration {
			calls++
			if calls%3 == 0 {
				return 15 * time.Second
			}
			return 50 * time.Millisecond
		})
	flakyCalls := 0
	meteo.Endpoint().Register("GetForecast",
		func(*xmltree.Node) (*xmltree.Node, error) {
			flakyCalls++
			if flakyCalls%2 == 0 {
				return nil, fmt.Errorf("forecast backend down")
			}
			return xmltree.Elem("forecast"), nil
		}, nil)
	sys.MustAddPeer("a.com")
	sys.MustAddPeer("b.com")
	portal := sys.MustAddPeer("portal.com")
	churn := workload.NewFeedChurn(17, "portal", 4)
	portal.RegisterFeed("http://portal.com/feed", churn.Fetch())

	// --- monitoring tasks ---
	noc := sys.MustAddPeer("noc")

	qos, err := noc.Subscribe(`for $c1 in outCOM(<p>http://a.com</p><p>http://b.com</p>),
    $c2 in inCOM(<p>http://meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where $duration > 10 and
      $c1.callMethod = "GetTemperature" and
      $c1.callee = "http://meteo.com" and
      $c1.callId = $c2.callId
return <incident type="slowAnswer"><client>{$c1.caller}</client></incident>
by publish as channel "alertQoS"`)
	if err != nil {
		t.Fatal(err)
	}

	faults, err := noc.Subscribe(`for $e in inCOM(<p>meteo.com</p>)
where $e.fault != ""
return <failure m="{$e.callMethod}"/>
by publish as channel "failures" and email "oncall@meteo.com"`)
	if err != nil {
		t.Fatal(err)
	}
	// The fault task's alerter rides on the QoS task's inCOM stream.
	if faults.Reuse == nil || len(faults.Reuse.Mappings) == 0 {
		t.Error("fault task should reuse the inCOM alerter")
	}

	// Subsumption on top of the fault stream: forecast faults only.
	forecastFaults, err := noc.Subscribe(`for $e in inCOM(<p>meteo.com</p>)
where $e.fault != "" and $e.callMethod = "GetForecast"
return $e by publish as channel "forecastFailures"`)
	if err != nil {
		t.Fatal(err)
	}

	rates, err := noc.Subscribe(`for $e in inCOM(<p>meteo.com</p>)
return <call m="{$e.callMethod}"/>
group on "m" window "1m"
by publish as channel "rates"`)
	if err != nil {
		t.Fatal(err)
	}

	freshEntries, err := noc.Subscribe(`for $r in rssCOM(<p>portal.com</p>)
where $r.change = "add"
return $r by publish as channel "fresh"`)
	if err != nil {
		t.Fatal(err)
	}

	membership, err := noc.Subscribe(`for $j in areRegistered(<p>dht</p>)
for $c in inCOM($j)
where $c.callMethod = "Late"
return <late callee="{$c.callee}"/>
by publish as channel "lateJoiners"`)
	if err != nil {
		t.Fatal(err)
	}

	// --- workload ---
	a := sys.Peer("a.com").Endpoint()
	b := sys.Peer("b.com").Endpoint()
	const rounds = 9
	for i := 0; i < rounds; i++ {
		caller := a
		if i%2 == 1 {
			caller = b
		}
		if _, err := caller.Invoke("meteo.com", "GetTemperature", nil); err != nil {
			t.Fatal(err)
		}
		caller.Invoke("meteo.com", "GetForecast", nil) // errors expected
		sys.Net.Clock().Advance(20 * time.Second)
	}
	// Feed churn with polling.
	adds := 0
	for i := 0; i < 12; i++ {
		if churn.Step() == rss.Added {
			adds++
		}
		if _, err := sys.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	// A peer joins late and receives monitored traffic.
	late := sys.MustAddPeer("late.com")
	late.Endpoint().Register("Late", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	sys.Quiesce()
	if got := membership.DynEventsProcessed(); got != 1 {
		t.Fatalf("membership events applied = %d, want 1 (late.com's join)", got)
	}
	if _, err := a.Invoke("late.com", "Late", nil); err != nil {
		t.Fatal(err)
	}

	// --- teardown & assertions ---
	for _, task := range []*p2pm.Task{qos, faults, forecastFaults, rates, freshEntries, membership} {
		task.Stop()
	}

	if got := len(qos.Results().Drain()); got != rounds/3 {
		t.Errorf("QoS incidents = %d, want %d", got, rounds/3)
	}
	wantFaults := rounds / 2 // every second GetForecast fails
	if got := len(faults.Results().Drain()); got != wantFaults {
		t.Errorf("faults = %d, want %d", got, wantFaults)
	}
	if got := len(forecastFaults.Results().Drain()); got != wantFaults {
		t.Errorf("forecast faults = %d, want %d", got, wantFaults)
	}
	rateRows := rates.Results().Drain()
	total := 0
	for _, r := range rateRows {
		var n int
		fmt.Sscanf(r.Tree.AttrOr("count", "0"), "%d", &n)
		total += n
	}
	if total != 2*rounds { // GetTemperature + GetForecast per round
		t.Errorf("grouped call count = %d, want %d", total, 2*rounds)
	}
	if got := len(freshEntries.Results().Drain()); got != adds {
		t.Errorf("fresh entries = %d, want %d", got, adds)
	}
	if got := len(membership.Results().Drain()); got != 1 {
		t.Errorf("late-joiner calls = %d, want 1", got)
	}
}
