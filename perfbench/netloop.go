package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p2pm/internal/simnet"
	"p2pm/internal/telemetry"
	"p2pm/internal/transport"
	"p2pm/internal/wire"
)

// The net-loopback shape: two transport nodes on 127.0.0.1 (the root
// and one source, which also mirrors the root's checkpoints), windowed
// distinct counts (HyperLogLog partials), 64 events per window. Each
// round runs a fresh node pair over the same two connections.
const (
	netWindows = 256 // windows per round
	netEvents  = 64  // events per window
	netFn      = "distinct"
	netWait    = 5 * time.Second
	// netCaptured bounds the frames of each kind kept for the codec
	// measurement of the traced run.
	netCaptured = 256
)

type netBench struct {
	cfg    setupConfig
	peers  []string // root first
	tcps   []*transport.TCP
	probe  []*probeTransport
	closed bool
}

func setupNet(cfg setupConfig) (bench, error) {
	// The seed names the peers, and the source's records derive from its
	// name, so each seed drives different data.
	b := &netBench{cfg: cfg, peers: []string{fmt.Sprintf("a%d", cfg.seed), fmt.Sprintf("b%d", cfg.seed)}}
	for _, name := range b.peers {
		cfg.tr.begin("transport.listen", -1)
		tp, err := transport.ListenTCP(name, "127.0.0.1:0", transport.TCPOptions{Telemetry: cfg.reg})
		cfg.tr.end()
		if err != nil {
			b.close()
			return nil, err
		}
		b.tcps = append(b.tcps, tp)
		b.probe = append(b.probe, newProbe(tp, cfg.tr != nil))
	}
	b.tcps[0].AddPeer(b.peers[1], b.tcps[1].Addr())
	b.tcps[1].AddPeer(b.peers[0], b.tcps[0].Addr())
	// Connect both links: each endpoint dials lazily on its first Send,
	// so one probe each way, awaited at the far end, makes the set-up
	// include the dial and Hello handshake.
	for i := range b.probe {
		arrived := make(chan struct{}, 1)
		b.probe[1-i].Handle(func(string, wire.Message) {
			select {
			case arrived <- struct{}{}:
			default:
			}
		})
		if err := b.probe[i].Send(b.peers[1-i], &wire.Probe{Seq: 1}); err != nil {
			b.close()
			return nil, err
		}
		select {
		case <-arrived:
		case <-time.After(netWait):
			b.close()
			return nil, fmt.Errorf("%s did not connect to %s", b.peers[i], b.peers[1-i])
		}
	}
	for _, p := range b.probe {
		p.reset()
	}
	return b, nil
}

func (b *netBench) nodeConfig(self string) transport.NodeConfig {
	return transport.NodeConfig{Self: self, Peers: b.peers, Fn: netFn, Windows: netWindows, EventsPerWindow: netEvents}
}

func (b *netBench) close() {
	if b.closed {
		return
	}
	b.closed = true
	for _, tp := range b.tcps {
		tp.Close()
	}
}

// reference runs one round's NodeConfig over the in-process simnet
// transport and returns the root's lines.
func (b *netBench) reference() ([]string, error) {
	sn := transport.NewSimNet(simnet.New(simnet.Options{Seed: b.cfg.seed}))
	var nodes []*transport.Node
	for _, name := range b.peers {
		n, err := transport.NewNode(b.nodeConfig(name), sn.Endpoint(name))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for _, n := range nodes {
		n.Start()
	}
	for _, n := range nodes {
		if err := n.Wait(netWait); err != nil {
			return nil, err
		}
	}
	return nodes[0].Results(), nil
}

func (b *netBench) run(d time.Duration) (*report, error) {
	rep := &report{}
	tr := b.cfg.tr
	// The reference is computed before the measured phase, so each
	// round is checked as it ends and the rounds' results are not kept.
	ref, err := b.reference()
	if err != nil {
		return nil, fmt.Errorf("simnet reference: %w", err)
	}
	var s0 telemetry.Snapshot
	if b.cfg.reg != nil {
		s0 = b.cfg.reg.Snapshot()
	}
	windows, mirrorMissing := 0, 0
	rep.mem.start()
	start := time.Now()
	var busy time.Duration // time rounds ran: node start to both done
	for rounds := 0; rounds == 0 || time.Since(start)-rep.mem.paused < d; rounds++ {
		tr.begin("driver.round", int64(rounds))
		var nodes []*transport.Node
		for i, name := range b.peers {
			n, err := transport.NewNode(b.nodeConfig(name), b.probe[i])
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		}
		b.probe[1].newRound()
		t0 := time.Now()
		for _, n := range nodes {
			n.Start()
		}
		var err error
		for _, n := range nodes {
			tr.begin("transport.wait", int64(rounds))
			if werr := n.Wait(netWait); werr != nil && err == nil {
				err = werr
			}
			tr.end()
		}
		busy += time.Since(t0)
		b.check(rep, rounds, ref, nodes[0].Results())
		mirrorMissing += netWindows - len(nodes[1].MirrorCkpts())
		for _, n := range nodes {
			n.Stop()
		}
		tr.end()
		if err != nil {
			rep.fail("round %d: %v", rounds, err)
			break
		}
		windows += netWindows
		if rounds == 0 {
			rep.mem.heap()
		}
	}
	rep.wall = busy
	rep.mem.stop()
	rep.events = windows * netEvents
	src := b.probe[1]
	src.mu.Lock()
	rep.deliver = append(rep.deliver, src.deliver...)
	partialSends := src.partialSends
	src.mu.Unlock()

	if rep.missing > 0 {
		rep.fail("%d windows never completed", rep.missing)
	}
	rep.extra.add("windows_per_s", "1/s", ratio(float64(windows), busy.Seconds()))
	rep.extra.add("allocs_per_window", "count", ratio(float64(rep.mem.mallocs), float64(windows)))
	rep.extra.add("mirror_ckpt_missing", "count", float64(mirrorMissing))

	if b.cfg.reg != nil {
		b.close() // let in-flight frames land before reconciling
		var ms metrics
		b.transportLayers(&ms, rep, s0, windows, partialSends, mirrorMissing)
		rep.layers = ms
	}
	return rep, nil
}

// check scores one round's root lines against the reference.
func (b *netBench) check(rep *report, round int, ref, lines []string) {
	rep.expected += len(ref)
	for i, want := range ref {
		switch {
		case i >= len(lines):
			rep.missing++
		case lines[i] != want:
			rep.wrong++
			rep.fail("round %d window %d: got %q, want %q", round, i, lines[i], want)
		}
	}
	if extra := len(lines) - len(ref); extra > 0 {
		rep.dup += extra
	}
}

// transportLayers derives the traced run's transport and wire metrics
// and reconciles the probes' counts with the registry.
func (b *netBench) transportLayers(ms *metrics, rep *report, s0 telemetry.Snapshot, windows, partialSends, mirrorMissing int) {
	s := b.cfg.reg.Snapshot().Delta(s0)
	var sendUs, handlerUs []float64
	var sent, handled int
	var partials, acks []wire.Message
	for _, p := range b.probe {
		p.mu.Lock()
		sendUs = append(sendUs, p.sendUs...)
		handlerUs = append(handlerUs, p.handlerUs...)
		sent += p.sent
		handled += int(p.handled.Load())
		partials = append(partials, p.partials...)
		acks = append(acks, p.acks...)
		p.mu.Unlock()
	}
	ms.addTimings("transport.send_us", "us", sendUs)
	med, _ := summarize(handlerUs)
	ms.addPctl("transport.handler_us.p50", "us", med)
	ms.add("transport.frames_per_window", "count", ratio(float64(sent), float64(windows)))
	ms.add("transport.resend_ratio", "ratio", ratio(float64(partialSends), float64(windows)))
	reconnects := counterSum(s, "transport_reconnects_total")
	ms.add("transport.reconnects", "count", reconnects)
	ms.add("transport.mirror_ckpt_missing", "count", float64(mirrorMissing))

	// Every probe-counted send is a frame the endpoint enqueued or
	// dropped; every decoded frame reached a handler, except the Hello
	// opening each (re)connection.
	regSent := counterSum(s, "transport_sent_total") + counterSum(s, "transport_dropped_total")
	if float64(sent) != regSent {
		rep.fail("probe sends %d != transport_sent_total+dropped %v", sent, regSent)
	}
	if decoded := counterSum(s, "wire_decoded_total"); decoded != float64(handled)+reconnects {
		rep.fail("probe handled %d frames and saw %v reconnects, wire_decoded_total %v", handled, reconnects, decoded)
	}

	for _, c := range []struct {
		kind string
		msgs []wire.Message
	}{{"partial", partials}, {"ack", acks}} {
		enc, dec, allocs, size := codecCost(c.msgs)
		ms.add("wire.encode_ns."+c.kind, "ns", enc)
		ms.add("wire.decode_ns."+c.kind, "ns", dec)
		if c.kind == "partial" {
			ms.add("wire.allocs_per_msg.partial", "count", allocs)
			ms.add("wire.bytes_per_msg.partial", "B", size)
		}
	}
}

// codecCost re-encodes and re-decodes captured frames: mean ns per
// Encode and per Decode, allocations per Encode+Decode, bytes per
// frame.
func codecCost(msgs []wire.Message) (encNs, decNs, allocs, size float64) {
	if len(msgs) == 0 {
		return 0, 0, 0, 0
	}
	const reps = 20
	frames := make([][]byte, len(msgs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, m := range msgs {
		frames[i] = wire.Encode(m)
		if _, err := wire.Decode(frames[i]); err != nil {
			return 0, 0, 0, 0
		}
	}
	runtime.ReadMemStats(&ms1)
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(msgs))
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			wire.Encode(m)
		}
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(msgs))
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			wire.Decode(f) //nolint:errcheck // decoded once above
		}
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(msgs))
	for _, f := range frames {
		size += float64(len(f))
	}
	return encNs, decNs, allocs, size / float64(len(frames))
}

// probeTransport wraps a node's transport: it times Send and the
// handler, counts frames, and on the source measures each window's
// delivery from the first Send of its Partial to the receipt of its
// Ack. In a traced run it keeps copies of the first frames of each
// kind for the codec measurement.
type probeTransport struct {
	transport.Transport
	traced  bool
	h       atomic.Pointer[transport.Handler]
	handled atomic.Int64

	mu           sync.Mutex
	sentAt       []time.Time // per window of the current round: first Partial send
	acked        []bool
	deliver      []float64
	partialSends int
	sent         int
	sendUs       []float64
	handlerUs    []float64
	partials     []wire.Message
	acks         []wire.Message
}

func newProbe(inner transport.Transport, traced bool) *probeTransport {
	p := &probeTransport{Transport: inner, traced: traced}
	inner.Handle(p.onMessage)
	return p
}

// reset clears the probe's counts and installs no handler: the
// measured phase starts from here.
func (p *probeTransport) reset() {
	p.h.Store(nil)
	p.handled.Store(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent, p.partialSends = 0, 0
}

// newRound resets the per-window delivery clocks for a fresh node.
func (p *probeTransport) newRound() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sentAt = slices.Grow(p.sentAt[:0], netWindows)[:netWindows]
	clear(p.sentAt)
	p.acked = slices.Grow(p.acked[:0], netWindows)[:netWindows]
	clear(p.acked)
}

// Handle installs the node's handler behind the probe.
func (p *probeTransport) Handle(h transport.Handler) { p.h.Store(&h) }

func (p *probeTransport) Send(to string, m wire.Message) error {
	t0 := time.Now()
	err := p.Transport.Send(to, m)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent++
	if p.traced {
		p.sendUs = append(p.sendUs, micros(d))
	}
	if pm, ok := m.(*wire.Partial); ok {
		p.partialSends++
		if w := int(pm.Window); w < len(p.sentAt) && p.sentAt[w].IsZero() {
			p.sentAt[w] = t0
		}
		if p.traced && len(p.partials) < netCaptured {
			p.partials = append(p.partials, m)
		}
	}
	return nil
}

func (p *probeTransport) onMessage(from string, m wire.Message) {
	t0 := time.Now()
	if a, ok := m.(*wire.Ack); ok && a.Stream == p.Self() {
		p.mu.Lock()
		if w := int(a.Window); w < len(p.sentAt) && !p.acked[w] && !p.sentAt[w].IsZero() {
			p.acked[w] = true
			p.deliver = append(p.deliver, micros(t0.Sub(p.sentAt[w])))
		}
		p.mu.Unlock()
	}
	if h := p.h.Load(); h != nil {
		(*h)(from, m)
	}
	p.handled.Add(1)
	if p.traced {
		d := time.Since(t0)
		p.mu.Lock()
		p.handlerUs = append(p.handlerUs, micros(d))
		if _, ok := m.(*wire.Ack); ok && len(p.acks) < netCaptured {
			p.acks = append(p.acks, m)
		}
		p.mu.Unlock()
	}
}
