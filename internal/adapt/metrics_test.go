package adapt_test

import (
	"testing"
	"time"

	"p2pm/internal/adapt"
	"p2pm/internal/peer"
	"p2pm/internal/telemetry"
)

// TestMetricTriggerClassification pins the alert-shape contract between
// MetricsSysmon documents and MetricTrigger.
func TestMetricTriggerClassification(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := peer.DefaultConfig()
	cfg.Telemetry.Registry = reg
	sys := peer.MustSystem(cfg)
	mgr := sys.MustAddPeer("mgr")

	adapt.MetricsSysmon(sys, mgr, reg, time.Second)
	c := reg.Counter("wire_dropped_total", telemetry.L("peer", "n2"))
	c.Add(7)
	sys.Step(time.Second)

	doc, ok := mgr.Repo().Get("sysmetrics-000001")
	if !ok {
		t.Fatal("no sysmetrics document published after one Step")
	}
	found := false
	for _, e := range doc.ChildrenByLabel("metric") {
		if e.AttrOr("name", "") == "wire_dropped_total" {
			found = true
			if e.AttrOr("peer", "") != "n2" || e.AttrOr("value", "") != "7" {
				t.Errorf("metric element = %v", e)
			}
		}
	}
	if !found {
		t.Fatal("wire_dropped_total missing from the snapshot document")
	}

	// Deltas: the next period publishes only the growth.
	c.Add(3)
	sys.Step(time.Second)
	doc, ok = mgr.Repo().Get("sysmetrics-000002")
	if !ok {
		t.Fatal("no second snapshot")
	}
	for _, e := range doc.ChildrenByLabel("metric") {
		if e.AttrOr("name", "") == "wire_dropped_total" && e.AttrOr("value", "") != "3" {
			t.Errorf("second period delta = %s, want 3", e.AttrOr("value", ""))
		}
	}
}

// TestMetricLoopQuarantinesOnWireDrops is the acceptance path: the
// monitor's own telemetry registry, published as an ActiveXML stream by
// MetricsSysmon, watched by an ordinary P2PML subscription, drives an
// adapt.Loop rule that quarantines the peer behind sustained
// wire-decode drop growth — and releases it once the drops stop.
func TestMetricLoopQuarantinesOnWireDrops(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := peer.DefaultConfig()
	cfg.Telemetry.Registry = reg
	sys := peer.MustSystem(cfg)
	mgr := sys.MustAddPeer("mgr")
	sys.MustAddPeer("w1")
	sys.MustAddPeer("w2")

	adapt.MetricsSysmon(sys, mgr, reg, time.Second)
	task, err := mgr.Subscribe(adapt.SysmonQuery("mgr"))
	if err != nil {
		t.Fatalf("sysmon subscription: %v", err)
	}

	tun := sys.Tuning()
	loop := adapt.NewLoop()
	loop.MustAdd(adapt.Rule{
		Name:    "quarantine-dropper",
		Trigger: adapt.MetricTrigger("wire_dropped_total", "peer", 5),
		Arm:     3,
		Within:  10 * time.Second,
		Quiet:   5 * time.Second,
		Engage:  func(entity string, _ time.Duration) { tun.QuarantineAggHost(entity) },
		Release: func(entity string, _ time.Duration) { tun.LiftQuarantine(entity) },
	})
	adapt.Attach(sys, task, loop)

	// Sustained decode-drop growth attributed to w2 — the counter the
	// transport layer's wire mirror feeds when a peer ships garbage.
	dropped := reg.Counter("wire_dropped_total", telemetry.L("backend", "sim"), telemetry.L("peer", "w2"))
	for i := 0; i < 6; i++ {
		dropped.Add(6)
		sys.Step(time.Second)
	}
	if q := tun.Quarantined(); len(q) != 1 || q[0] != "w2" {
		t.Fatalf("quarantined = %v, want [w2] after sustained drop growth (loop events: %v)", q, loop.Events())
	}

	// Drops stop; after Quiet the rule must release the quarantine.
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	if q := tun.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined = %v, want none after quiet (loop events: %v)", q, loop.Events())
	}
}
