package main

import (
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/peer"
	"p2pm/internal/telemetry"
)

// perLayer is the result-line metric set of a traced run, in order. A
// layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"cpu.peer", "ratio"}, {"cpu.operators", "ratio"}, {"cpu.stream", "ratio"},
	{"cpu.xmltree", "ratio"}, {"cpu.p2pml", "ratio"}, {"cpu.algebra", "ratio"},
	{"cpu.monoid", "ratio"}, {"cpu.wire", "ratio"}, {"cpu.transport", "ratio"},
	{"cpu.dht", "ratio"}, {"cpu.kadop", "ratio"}, {"cpu.simnet", "ratio"},
	{"cpu.soap", "ratio"}, {"cpu.alerters", "ratio"}, {"cpu.driver", "ratio"},
	{"cpu.runtime_gc", "ratio"}, {"cpu.runtime_sched", "ratio"},
	{"cpu.runtime_other", "ratio"}, {"cpu.other", "ratio"},
	{"gc.cycles_per_kevent", "count"},
	{"trace.untraced_events_per_s", "1/s"}, {"trace.traced_events_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
	{"self.driver_us_per_event", "us"}, {"self.soap_us_per_event", "us"},
	{"self.operators_us_per_event", "us"}, {"self.peer_us_per_event", "us"},
	{"self.p2pml_us_per_event", "us"}, {"self.algebra_us_per_event", "us"},
	{"self.transport_us_per_event", "us"},
	{"soap.invoke_us.p50", "us"}, {"soap.invoke_us.p99", "us"},
	{"operators.wait_us.p50", "us"}, {"operators.wait_us.p99", "us"},
	{"operators.items_per_event", "count"},
	{"simnet.msgs_per_event", "count"}, {"simnet.bytes_per_event", "B"},
	{"p2pml.parse_us", "us"}, {"algebra.compile_us", "us"}, {"algebra.optimize_us", "us"},
	{"peer.subscribe_ms.p50", "ms"}, {"peer.subscribe_ms.p99", "ms"},
	{"reuse.ops_per_sub", "count"}, {"peer.deploy_ms", "ms"},
	{"peer.step_ms.p50", "ms"}, {"peer.step_ms.p99", "ms"}, {"peer.step_share", "ratio"},
	{"gossip.probes_per_step", "count"}, {"gossip.indirect_per_step", "count"},
	{"gossip.suspicions", "count"}, {"gossip.false_deaths", "count"},
	{"dht.puts_per_step", "count"}, {"dht.lookups", "count"},
	{"dht.hops_per_lookup", "count"}, {"dht.handoffs", "count"},
	{"dht.cache_hit_ratio", "ratio"},
	{"aggtree.stop_ms", "ms"}, {"aggtree.ingest_max_over_mean", "ratio"},
	{"agg.interior_ingest_max", "count"},
	{"peer.repair_step_ms.p50", "ms"}, {"peer.leave_ms.p50", "ms"},
	{"peer.join_ms.p50", "ms"}, {"peer.failover_events", "count"},
	{"peer.detect_virtual_s.p50", "s"}, {"replay.replayed_items", "count"},
	{"wire.encode_ns.partial", "ns"}, {"wire.encode_ns.ack", "ns"},
	{"wire.decode_ns.partial", "ns"}, {"wire.decode_ns.ack", "ns"},
	{"wire.allocs_per_msg.partial", "count"}, {"wire.bytes_per_msg.partial", "B"},
	{"transport.send_us.p50", "us"}, {"transport.send_us.p99", "us"},
	{"transport.handler_us.p50", "us"}, {"transport.frames_per_window", "count"},
	{"transport.resend_ratio", "ratio"}, {"transport.reconnects", "count"},
	{"transport.mirror_ckpt_missing", "count"},
	{"telemetry.series_dropped", "count"},
}

// sysLayers collects the per-layer figures every peer.System workload
// shares: Step timing and the registry's simnet, gossip and DHT counters
// over the measured phase. Step timing is kept in untraced runs too (one
// clock read per Step); the rest only with a registry.
type sysLayers struct {
	sys *peer.System
	reg *telemetry.Registry
	tr  *tracer

	s0      telemetry.Snapshot
	stepMs  []float64
	stepSum time.Duration
}

func newSysLayers(sys *peer.System, cfg setupConfig) *sysLayers {
	return &sysLayers{sys: sys, reg: cfg.reg, tr: cfg.tr}
}

// start marks the beginning of the measured phase.
func (l *sysLayers) start() {
	if l.reg != nil {
		l.s0 = l.reg.Snapshot()
	}
}

// step advances the virtual clock one second and returns its wall
// time.
func (l *sysLayers) step() time.Duration {
	l.tr.begin("peer.step", -1)
	t0 := time.Now()
	l.sys.Step(time.Second)
	d := time.Since(t0)
	l.tr.end()
	l.stepSum += d
	if l.reg != nil {
		l.stepMs = append(l.stepMs, millis(d))
	}
	return d
}

// finish adds the shared per-layer metrics. falseDeath reports whether
// a declared death hit a peer the driver never crashed or removed.
func (l *sysLayers) finish(ms *metrics, events int, wall time.Duration, sup *peer.Supervisor, falseDeath func(string) bool) {
	steps := float64(len(l.stepMs))
	ms.addTimings("peer.step_ms", "ms", l.stepMs)
	ms.add("peer.step_share", "ratio", ratio(l.stepSum.Seconds(), wall.Seconds()))
	s := l.reg.Snapshot().Delta(l.s0)
	ev := float64(events)
	ms.add("simnet.msgs_per_event", "count", ratio(counterSum(s, "simnet_messages_total"), ev))
	ms.add("simnet.bytes_per_event", "B", ratio(counterSum(s, "simnet_bytes_total"), ev))
	ms.add("gossip.probes_per_step", "count", ratio(counterSum(s, "gossip_probes_total"), steps))
	ms.add("gossip.indirect_per_step", "count", ratio(counterSum(s, "gossip_indirect_probes_total"), steps))
	ms.add("gossip.suspicions", "count", counterSum(s, "gossip_suspicions_total"))
	falseDeaths := 0
	for _, d := range sup.Deaths() {
		if falseDeath(d) {
			falseDeaths++
		}
	}
	ms.add("gossip.false_deaths", "count", float64(falseDeaths))
	lookups := counterSum(s, "dht_lookups_total")
	ms.add("dht.puts_per_step", "count", ratio(counterSum(s, "dht_puts_total"), steps))
	ms.add("dht.lookups", "count", lookups)
	ms.add("dht.hops_per_lookup", "count", ratio(counterSum(s, "dht_hops_total"), lookups))
	ms.add("dht.handoffs", "count", counterSum(s, "dht_handoffs_total"))
	ms.add("dht.cache_hit_ratio", "ratio", ratio(counterSum(s, "dht_cache_hits_total"), counterSum(s, "dht_gets_total")))
	ms.add("replay.replayed_items", "count", counterSum(s, "stream_replayed_items"))
}

// compileTimes times the public parse, compile and optimize calls on a
// subscription text, outside the System (traced set-up only).
type compileTimes struct{ parse, compile, optimize []float64 }

func (c *compileTimes) measure(tr *tracer, text, subscriber string) error {
	tr.begin("p2pml.parse", -1)
	t0 := time.Now()
	sub, err := p2pml.Parse(text)
	c.parse = append(c.parse, micros(time.Since(t0)))
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("algebra.compile", -1)
	t0 = time.Now()
	plan, err := algebra.Compile(sub)
	c.compile = append(c.compile, micros(time.Since(t0)))
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("algebra.optimize", -1)
	t0 = time.Now()
	algebra.Optimize(plan, algebra.DefaultOptions(subscriber))
	c.optimize = append(c.optimize, micros(time.Since(t0)))
	tr.end()
	return nil
}

func (c *compileTimes) add(ms *metrics) {
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"p2pml.parse_us", c.parse}, {"algebra.compile_us", c.compile}, {"algebra.optimize_us", c.optimize}} {
		med, _ := summarize(x.xs)
		ms.addPctl(x.name, "us", med)
	}
}
