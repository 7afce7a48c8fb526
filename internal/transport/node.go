package transport

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pm/internal/monoid"
	"p2pm/internal/wire"
)

// Node is the cluster monitor node of the multi-process mode: the same
// windowed in-network aggregation the simnet experiments run, expressed
// purely over a Transport so it is backend-agnostic. The lexically
// smallest peer is the merge root, every other peer is a source that
// generates a deterministic record stream, pre-aggregates each window
// into a monoid partial state (exactly what PartialAgg does next to a
// simnet source), and ships it as a wire.Partial. The root merges the
// states of all sources per window — commutative monoid merge, so
// arrival order cannot change the answer — and emits one result line
// per window.
//
// Delivery is exactly-once end-to-end over an at-most-once transport:
// sources resend an unacknowledged window's partial until the root
// acks it, and the root absorbs only the first copy of each
// (source, window). A killed TCP connection (or a simnet link fault)
// therefore delays a window, never loses or double-counts it — the
// property the backend-equivalence tests pin against the X2 chart.
//
// Alongside the aggregate, nodes run a gossip heartbeat (wire.Probe/
// Ack with piggybacked alive updates), sources announce their partial
// stream with a wire.Publish descriptor, and the root mirrors each
// completed window's merged state to the lexically second peer with a
// wire.CkptPut — so every wire message kind a real deployment needs
// crosses the transport in this scenario. The mirror acks its
// contiguous checkpoint prefix cumulatively, and the root resends the
// first unacked window and is done only once every checkpoint is acked.
type Node struct {
	cfg NodeConfig
	tr  Transport

	root   string
	mirror string
	srcs   []string // sources, sorted

	mu        sync.Mutex
	cond      *sync.Cond
	acked     map[uint64]bool                     // source: windows the root acked
	partials  map[uint64]map[string]*wire.Partial // root: first copy per (window, source)
	emitted   []string                            // root: result lines
	nextEmit  uint64                              // root: lowest incomplete window
	ckptAcked uint64                              // root: checkpoint prefix the mirror acked
	ckpts     map[string]string                   // mirror: checkpointed window states
	ckptNext  uint64                              // mirror: length of the contiguous checkpoint prefix
	defs      map[string]string                   // root: published stream descriptors by source
	lastSeen  map[string]time.Time                // heartbeat: peer -> last gossip sighting
	probeSeq  uint64
	dupes     uint64 // root: duplicate partials discarded by the dedup
	rejected  uint64 // root: partials rejected (bad state / unknown fn)
	done      bool
	stopped   bool
	stopCh    chan struct{}
	announced bool
}

// NodeConfig configures one cluster node. Every node of a cluster must
// run the same Fn/Windows/EventsPerWindow/Users numbers — they define
// the scenario — while Self varies.
type NodeConfig struct {
	// Self is this node's peer name.
	Self string
	// Peers names every cluster member including Self. The lexically
	// smallest is the merge root, the second smallest the checkpoint
	// mirror; the rest (plus the mirror) are sources.
	Peers []string
	// Fn is the aggregate function (monoid registry name). Default
	// count.
	Fn string
	// Windows is how many windows the scenario completes. Default 5.
	Windows int
	// EventsPerWindow is how many records each source generates per
	// window. Default 16.
	EventsPerWindow int
	// Users sizes the deterministic value universe for value-consuming
	// aggregates. Default 24.
	Users int
	// ResendEvery is the source-side resend period for unacked
	// partials. Default 150ms.
	ResendEvery time.Duration
	// HeartbeatEvery is the gossip probe period. Default 200ms.
	HeartbeatEvery time.Duration
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Fn == "" {
		c.Fn = "count"
	}
	if c.Windows <= 0 {
		c.Windows = 5
	}
	if c.EventsPerWindow <= 0 {
		c.EventsPerWindow = 16
	}
	if c.Users <= 0 {
		c.Users = 24
	}
	if c.ResendEvery <= 0 {
		c.ResendEvery = 150 * time.Millisecond
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 200 * time.Millisecond
	}
	return c
}

// NewNode builds a node over its transport. Call Start to run it.
func NewNode(cfg NodeConfig, tr Transport) (*Node, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("transport: a cluster needs >= 2 peers, got %d", len(cfg.Peers))
	}
	peers := append([]string(nil), cfg.Peers...)
	sort.Strings(peers)
	self := false
	for _, p := range peers {
		if p == cfg.Self {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("transport: self %q is not among the cluster peers %v", cfg.Self, peers)
	}
	if _, ok := monoid.Lookup(cfg.Fn); !ok {
		return nil, fmt.Errorf("transport: unknown aggregate function %q", cfg.Fn)
	}
	n := &Node{
		cfg:      cfg,
		tr:       tr,
		root:     peers[0],
		mirror:   peers[1],
		srcs:     peers[1:],
		acked:    make(map[uint64]bool),
		partials: make(map[uint64]map[string]*wire.Partial),
		ckpts:    make(map[string]string),
		defs:     make(map[string]string),
		lastSeen: make(map[string]time.Time),
		stopCh:   make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	return n, nil
}

// Root returns the cluster's merge-root peer name.
func (n *Node) Root() string { return n.root }

// IsRoot reports whether this node merges and emits the results.
func (n *Node) IsRoot() bool { return n.cfg.Self == n.root }

// Start installs the handler and launches the node's loops.
func (n *Node) Start() {
	n.tr.Handle(n.onMessage)
	go n.heartbeatLoop()
	if !n.IsRoot() {
		go n.sourceLoop()
	}
}

// Stop ends the node's loops (the transport is left to the caller).
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.stopped {
		n.stopped = true
		close(n.stopCh)
		n.cond.Broadcast()
	}
}

// Wait blocks until the node finished its part of the scenario
// (finishedLocked) or the timeout passes.
func (n *Node) Wait(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for !n.done && !n.stopped && time.Now().Before(deadline) {
		n.cond.Wait()
	}
	if !n.done {
		return fmt.Errorf("transport: node %s timed out after %v (acked %d, emitted %d of %d windows)",
			n.cfg.Self, timeout, len(n.acked), len(n.emitted), n.cfg.Windows)
	}
	return nil
}

// Results returns the emitted window lines (root only; empty
// elsewhere).
func (n *Node) Results() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.emitted...)
}

// MirrorCkpts returns the window checkpoints this node stored as the
// cluster's mirror, sorted by key.
func (n *Node) MirrorCkpts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := make([]string, 0, len(n.ckpts))
	for k := range n.ckpts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PublishedDefs returns the stream descriptors the root received from
// its sources, keyed by source, as "source=def" lines sorted by
// source.
func (n *Node) PublishedDefs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.defs))
	for s, d := range n.defs {
		out = append(out, s+"="+d)
	}
	sort.Strings(out)
	return out
}

// AlivePeers returns how many cluster peers this node has heard a
// gossip heartbeat from within 3 heartbeat periods.
func (n *Node) AlivePeers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	alive := 0
	cut := time.Now().Add(-3 * n.cfg.HeartbeatEvery)
	for _, at := range n.lastSeen {
		if at.After(cut) {
			alive++
		}
	}
	return alive
}

// Dupes returns how many duplicate partials the root's dedup
// discarded — the exactly-once layer absorbing transport retries.
func (n *Node) Dupes() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dupes
}

// Rejected returns how many partials the root rejected (unknown fn or
// a state the monoid refused to decode).
func (n *Node) Rejected() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rejected
}

// ---------------------------------------------------------------------
// Source side

// sourceValue derives record i of window w at source src — a pure
// function of its coordinates, so every backend (and every process)
// generates the identical stream.
func sourceValue(src string, w, i, users int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", src, w, i)
	return fmt.Sprintf("u%d", h.Sum64()%uint64(users))
}

// windowState pre-aggregates one source window into a monoid state.
func windowState(fn monoid.Monoid, src string, w int, cfg NodeConfig) (monoid.State, int) {
	st := fn.Zero()
	for i := 0; i < cfg.EventsPerWindow; i++ {
		// Values are "u<k>" tokens; numeric aggregates consume the
		// index part. Absorb errors cannot happen for registry
		// functions over this generator, but stay counted regardless.
		val := sourceValue(src, w, i, cfg.Users)
		if fn.NeedsValue() && fn.Name() != "set" && fn.Name() != "distinct" && fn.Name() != "freq" {
			val = strings.TrimPrefix(val, "u")
		}
		if err := st.Absorb(val); err != nil {
			continue
		}
	}
	return st, cfg.EventsPerWindow
}

// sourceLoop generates and ships every window's partial, resending
// until the root acknowledges it.
func (n *Node) sourceLoop() {
	fn, _ := monoid.Lookup(n.cfg.Fn)
	// Announce the partial stream once, in the kadop descriptor schema
	// (the reuse layer's publish path over the wire).
	def := fmt.Sprintf(`<Stream PeerId=%q StreamId=%q isAChannel="true"><Operator><PartialAgg/></Operator><Operands/><Stats/></Stream>`,
		n.cfg.Self, "partial-"+n.cfg.Fn)
	n.tr.Send(n.root, &wire.Publish{Def: def}) //nolint:errcheck // lossy send; root tolerates absence
	for w := 0; w < n.cfg.Windows; w++ {
		st, count := windowState(fn, n.cfg.Self, w, n.cfg)
		msg := &wire.Partial{
			Fn:     n.cfg.Fn,
			Window: uint64(w),
			Source: n.cfg.Self,
			Count:  uint64(count),
			State:  st.Encode(),
		}
		for {
			n.tr.Send(n.root, msg) //nolint:errcheck // resend covers the loss
			if n.waitAck(uint64(w)) {
				break
			}
			if n.isStopped() {
				return
			}
		}
	}
}

// waitAck waits one resend period for the root's ack of window w.
func (n *Node) waitAck(w uint64) bool {
	deadline := time.Now().Add(n.cfg.ResendEvery)
	timer := time.AfterFunc(n.cfg.ResendEvery, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for !n.acked[w] && !n.stopped && time.Now().Before(deadline) {
		n.cond.Wait()
	}
	return n.acked[w]
}

func (n *Node) isStopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// ---------------------------------------------------------------------
// Heartbeats

func (n *Node) heartbeatLoop() {
	tick := time.NewTicker(n.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-tick.C:
		}
		n.mu.Lock()
		n.probeSeq++
		seq := n.probeSeq
		n.mu.Unlock()
		up := []wire.GossipUpdate{{Peer: n.cfg.Self, Status: wire.StatusAlive, Inc: seq}}
		for _, p := range n.cfg.Peers {
			if p == n.cfg.Self {
				continue
			}
			n.tr.Send(p, &wire.Probe{Seq: seq, Updates: up}) //nolint:errcheck // liveness is best-effort
		}
		if n.IsRoot() {
			n.resendCkpt() // one checkpoint resend per heartbeat period
		}
	}
}

// ---------------------------------------------------------------------
// Message handling

func (n *Node) onMessage(from string, m wire.Message) {
	switch t := m.(type) {
	case *wire.Partial:
		if n.IsRoot() {
			n.onPartial(from, t)
		}
	case *wire.Ack:
		n.mu.Lock()
		if t.Stream == n.cfg.Self {
			n.acked[t.Window] = true
		}
		if t.Stream == ckptStream && t.Window > n.ckptAcked {
			n.ckptAcked = t.Window
		}
		n.done = n.finishedLocked()
		n.lastSeen[from] = time.Now()
		n.cond.Broadcast()
		n.mu.Unlock()
	case *wire.Probe:
		n.mu.Lock()
		n.lastSeen[from] = time.Now()
		n.mu.Unlock()
		// Ack the probe with our own aliveness riding along.
		n.tr.Send(from, &wire.Ack{ //nolint:errcheck // best-effort
			Seq:     t.Seq,
			Updates: []wire.GossipUpdate{{Peer: n.cfg.Self, Status: wire.StatusAlive, Inc: t.Seq}},
		})
	case *wire.Gossip:
		n.mu.Lock()
		n.lastSeen[from] = time.Now()
		n.mu.Unlock()
	case *wire.Publish:
		if n.IsRoot() {
			n.mu.Lock()
			n.defs[from] = t.Def
			n.mu.Unlock()
		}
	case *wire.CkptPut:
		n.mu.Lock()
		_, dup := n.ckpts[t.Key]
		n.ckpts[t.Key] = t.Value
		for _, ok := n.ckpts[ckptKey(n.ckptNext)]; ok; _, ok = n.ckpts[ckptKey(n.ckptNext)] {
			n.ckptNext++
		}
		prefix := n.ckptNext
		n.done = n.finishedLocked()
		n.cond.Broadcast()
		n.mu.Unlock()
		// Ack only when the root needs it — the prefix is complete, or
		// this was a resend — so an in-order run costs one ack, not one
		// per window.
		if dup || prefix == uint64(n.cfg.Windows) {
			n.tr.Send(from, &wire.Ack{Stream: ckptStream, Window: prefix}) //nolint:errcheck // the root resends
		}
	}
}

// onPartial is the root's ingest: dedup by (source, window), validate
// the state through the monoid codec, ack, and emit every window that
// just became complete — in window order, so the output is a
// deterministic function of the scenario alone.
func (n *Node) onPartial(from string, p *wire.Partial) {
	fn, ok := monoid.Lookup(p.Fn)
	if !ok || p.Fn != n.cfg.Fn {
		n.mu.Lock()
		n.rejected++
		n.mu.Unlock()
		return
	}
	if _, err := fn.Decode(p.State); err != nil {
		// A corrupt state never reaches a window (parsePartial
		// semantics): count and drop, no ack, the source will resend.
		n.mu.Lock()
		n.rejected++
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	if p.Window < uint64(n.cfg.Windows) {
		win := n.partials[p.Window]
		if win == nil {
			win = make(map[string]*wire.Partial)
			n.partials[p.Window] = win
		}
		if _, seen := win[p.Source]; seen {
			n.dupes++
		} else {
			win[p.Source] = p
		}
	}
	n.mu.Unlock()
	// Always re-ack: the previous ack may have been lost.
	n.tr.Send(from, &wire.Ack{Stream: p.Source, Window: p.Window}) //nolint:errcheck // resend covers it
	n.emitComplete()
}

// emitComplete merges and emits every ready window in order.
func (n *Node) emitComplete() {
	for {
		n.mu.Lock()
		w := n.nextEmit
		if len(n.partials[w]) < len(n.srcs) {
			n.mu.Unlock()
			return
		}
		line, state := n.mergeLocked(w)
		n.emitted = append(n.emitted, line)
		n.nextEmit++
		n.done = n.finishedLocked()
		n.cond.Broadcast()
		n.mu.Unlock()
		n.tr.Send(n.mirror, &wire.CkptPut{Key: ckptKey(w), Value: state}) //nolint:errcheck // resendCkpt covers it
	}
}

// mergeLocked folds window w's partials, in source order so the result
// is deterministic, into its result line and merged state. n.mu held.
func (n *Node) mergeLocked(w uint64) (line, state string) {
	fn, _ := monoid.Lookup(n.cfg.Fn)
	win := n.partials[w]
	merged := fn.Zero()
	var events uint64
	for _, src := range n.srcs { // sorted: deterministic merge order
		p := win[src]
		st, err := fn.Decode(p.State)
		if err != nil {
			continue // validated at ingest; unreachable
		}
		merged.Merge(st) //nolint:errcheck // same-monoid merge cannot fail
		events += p.Count
	}
	attrs := map[string]string{}
	merged.Final(func(a, v string) { attrs[a] = v })
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "window=%d fn=%s", w, n.cfg.Fn)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	fmt.Fprintf(&b, " events=%d sources=%d", events, len(n.srcs))
	return b.String(), merged.Encode()
}

// finishedLocked reports whether the node's part is complete: the root
// emitted every window and the mirror acked every checkpoint; a source
// got every window acked and, as the mirror, holds every checkpoint.
func (n *Node) finishedLocked() bool {
	all := uint64(n.cfg.Windows)
	if n.IsRoot() {
		return n.nextEmit == all && n.ckptAcked == all
	}
	return uint64(len(n.acked)) == all && (n.cfg.Self != n.mirror || n.ckptNext == all)
}

// ckptStream is the Ack.Stream of the mirror's checkpoint acks.
const ckptStream = "ckpt|net"

// ckptKey is the mirror key of window w's checkpoint (kadop
// PutCheckpoint semantics over the wire).
func ckptKey(w uint64) string { return fmt.Sprintf("%s|window-%03d", ckptStream, w) }

// resendCkpt re-mirrors, once every window is emitted, the first
// checkpoint the mirror has not acked.
func (n *Node) resendCkpt() {
	n.mu.Lock()
	w := n.ckptAcked
	due := w < n.nextEmit && n.nextEmit == uint64(n.cfg.Windows)
	var state string
	if due {
		_, state = n.mergeLocked(w)
	}
	n.mu.Unlock()
	if due {
		n.tr.Send(n.mirror, &wire.CkptPut{Key: ckptKey(w), Value: state}) //nolint:errcheck // resent next period
	}
}
