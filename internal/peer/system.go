// Package peer implements P2PM's control plane: the System (a network of
// monitor peers plus the monitored substrates), the per-peer Subscription
// Manager with its subscription database, and the deployment machinery
// that turns an optimized algebraic plan into running operators connected
// by channels (Section 3).
package peer

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/dht"
	"p2pm/internal/kadop"
	"p2pm/internal/operators"
	"p2pm/internal/rss"
	"p2pm/internal/simnet"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/transport"
	"p2pm/internal/xmltree"
)

// System is one P2PM deployment: the monitoring P2P network, the
// monitored substrates (Web services fabric, feeds, repositories), the
// KadoP stream-definition database over its DHT, and the channel
// registry stitching deployed plan fragments together.
type System struct {
	// cfg is the grouped configuration; cfgMu guards it because the
	// Tuning surface mutates parts of it mid-run.
	cfgMu sync.RWMutex
	cfg   Config

	Net *simnet.Network
	// link is the fault-aware delivery seam every data-plane transfer
	// goes through (transport.Link). It is the same object as Net — the
	// simulated network satisfies the interface — but call sites that
	// move items or account bytes use this narrow surface, keeping the
	// operator data plane portable to other transport substrates.
	link   transport.Link
	Fabric *soap.Fabric
	Ring   *dht.Ring
	DB     *kadop.DB

	mu         sync.Mutex
	peers      map[string]*Peer
	channels   map[stream.Ref]*stream.Channel
	sidSeq     map[string]int
	taskSeq    int
	detectors  []FailureDetector
	forwarders []*replicaForwarder
	// aggHosts, when set, restricts DHT-routed aggregation-tree interior
	// placement to matching peers (e.g. a worker pool, keeping merge
	// nodes off monitored sources). nil admits every ring member.
	aggHosts func(name string) bool
	// quarantined removes peers from aggregation-tree interior placement
	// on top of the aggHosts filter (Tuning.QuarantineAggHost — the
	// control action a flap-monitoring query triggers).
	quarantined map[string]bool
	// stale marks channels whose producer migrated away during failover:
	// the channel object survives (and its host may come back), but no
	// operator feeds it anymore, so it must never be chosen as a
	// provider again.
	stale map[stream.Ref]bool
	// onStep hooks run at the end of every Step (after detectors, sweeps
	// and checkpoints) — the seam per-Step adaptive controllers hang off.
	onStep []func(now time.Duration)

	// inflight counts the items waiting in operator input queues or
	// being processed by their readers (Quiesce).
	inflight stream.Inflight
	// joinMu makes each JoinPeer one critical section.
	joinMu sync.Mutex

	lastCkpt time.Duration // virtual time of the last checkpoint sweep
	replayed atomic.Uint64 // items retransmitted from replay buffers
	splitSeq int           // fresh ids for re-chunked interiors
	splitLog []SplitEvent  // audit log of completed splits

	// tele and teleSrv are set once at construction when
	// Config.Telemetry opts in (docs/TELEMETRY.md); nil otherwise.
	tele    *sysMetrics
	teleSrv *telemetry.Server
}

// replicaForwarder records the subscription tying a replica channel to
// its origin, so failure handling can sever it when the origin's host
// crashes (a re-deployed operator takes over publishing into the
// replica; the origin's eventual teardown must not close it).
type replicaForwarder struct {
	orig stream.Ref
	rep  *stream.Channel
	sub  *stream.Subscription
	// cur, when the replay layer is on, orders and deduplicates the
	// forwarded items so the replica mirrors a gap-free prefix of the
	// original (its replay buffer stays contiguous); the anti-entropy
	// sweep refills link-fault losses through it.
	cur *stream.Cursor
	// severed is set when the origin's host died and a re-deployed
	// operator adopted the replica: the sweep must stop pulling from the
	// abandoned origin.
	severed bool
}

// NewSystem validates the configuration and builds an empty system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	nw := simnet.New(cfg.Net)
	ring := dht.New()
	if cfg.DHT.Replication > 1 {
		ring.SetReplication(cfg.DHT.Replication)
	}
	if cfg.DHT.VirtualNodes > 1 {
		ring.SetVirtual(cfg.DHT.VirtualNodes)
	}
	if cfg.DHT.LoadBound > 0 {
		ring.SetLoadBound(cfg.DHT.LoadBound)
	}
	if cfg.DHT.ReadCache {
		ring.EnableReadCache()
	}
	s := &System{
		cfg:      cfg,
		Net:      nw,
		link:     nw,
		Fabric:   soap.NewFabric(nw),
		Ring:     ring,
		DB:       kadop.New(ring),
		peers:    make(map[string]*Peer),
		channels: make(map[stream.Ref]*stream.Channel),
		stale:    make(map[stream.Ref]bool),
		sidSeq:   make(map[string]int),
	}
	if cfg.Agg.SplitRatio > 0 {
		s.startRechunkController()
	}
	if err := s.instrumentTelemetry(); err != nil {
		return nil, fmt.Errorf("peer: telemetry endpoint: %w", err)
	}
	return s, nil
}

// MustSystem is NewSystem that panics on a bad configuration (setup
// code and tests).
func MustSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// AddPeer registers a peer: it gets a network node, a SOAP endpoint and a
// position in the DHT ring backing the stream-definition database.
// Adding an existing name returns the existing peer.
func (s *System) AddPeer(name string) (*Peer, error) {
	s.mu.Lock()
	if p, ok := s.peers[name]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()
	s.Net.AddNode(name)
	if err := s.Ring.Join(name); err != nil {
		return nil, fmt.Errorf("peer: %s cannot join the DHT: %w", name, err)
	}
	p := &Peer{
		sys:      s,
		name:     name,
		endpoint: s.Fabric.Endpoint(name),
		tasks:    make(map[string]*Task),
		feeds:    make(map[string]func() (*rss.Feed, error)),
		pages:    make(map[string]func() (*xmltree.Node, error)),
		incoming: make(map[string]*stream.Queue),
	}
	s.mu.Lock()
	s.peers[name] = p
	s.mu.Unlock()
	return p, nil
}

// JoinPeer admits a peer at runtime through the membership protocol, no
// pre-run registration anywhere: the peer's network node comes up, it
// takes its positions on the stream-definition DHT ring (the keys it
// now owns hand off to it), and every running failure detector learns
// of it — gossip detectors through the join protocol (seed contact,
// bootstrap, piggybacked dissemination with incarnation numbers), home
// heartbeat detectors through direct registration at the home. The
// peer is immediately eligible for operator placement and failover
// targeting. Re-joining a dead peer revives it: its links come up, it
// re-enters the ring, and its gossip incarnation is bumped above every
// death rumor so the stale declarations cannot kill it again.
// Concurrent joins are serialized, so a duplicate join of one name
// takes the rejoin path instead of failing.
func (s *System) JoinPeer(name, seed string) (*Peer, error) {
	if name == seed {
		return nil, fmt.Errorf("peer: %s cannot seed its own join", name)
	}
	s.joinMu.Lock()
	defer s.joinMu.Unlock()
	if s.Peer(seed) == nil {
		return nil, fmt.Errorf("peer: join seed %q is not a member", seed)
	}
	if !s.Net.Alive(seed) {
		return nil, fmt.Errorf("peer: join seed %q is down", seed)
	}
	s.mu.Lock()
	dets := append([]FailureDetector(nil), s.detectors...)
	s.mu.Unlock()
	// Validate the join against every gossip detector BEFORE touching
	// any state: a rejected join (unknown seed view, joiner partitioned
	// from the seed) must not leave a half-admitted peer owning DHT
	// keys that no detector watches.
	for _, det := range dets {
		if g, ok := det.(*GossipDetector); ok {
			if err := g.joinPrecheck(name, seed); err != nil {
				return nil, err
			}
		}
	}
	rejoining := s.Peer(name) != nil
	p, err := s.AddPeer(name)
	if err != nil {
		return nil, err
	}
	if rejoining {
		s.Net.Recover(name) //nolint:errcheck // known node
		s.Ring.Join(name)   //nolint:errcheck // already-joined is fine
	}
	gossiped := false
	for _, det := range dets {
		if g, ok := det.(*GossipDetector); ok {
			if err := g.Join(name, seed); err != nil {
				// Unreachable given the precheck above (no state changed
				// between the two inside this critical section);
				// surface it rather than hide it.
				return p, err
			}
			gossiped = true
		} else {
			det.Watch(name)
		}
	}
	if !gossiped {
		// Home-mode registration: the join contact is one control
		// message on the joiner→seed link. (Gossip mode accounted the
		// contact and bootstrap transfer inside Join — don't double-
		// charge the same link.)
		s.link.CountTransfer(name, seed, ctrlMsgBytes)
	}
	if s.aggDegree() > 1 {
		// The ring just changed: aggregation-tree interiors whose
		// DHT-derived host moved re-parent onto the new owner (children
		// and consumers re-bind; with replay on the move is exactly-once
		// through the checkpoint+cursor machinery).
		s.RebalanceAggTrees(s.Net.Clock().Now())
	}
	return p, nil
}

// MustAddPeer is AddPeer that panics on error (setup code and tests).
func (s *System) MustAddPeer(name string) *Peer {
	p, err := s.AddPeer(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Peer returns a registered peer, or nil.
func (s *System) Peer(name string) *Peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[name]
}

// Peers returns all peer names.
func (s *System) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.peers))
	for n := range s.peers {
		names = append(names, n)
	}
	return names
}

// Config returns a snapshot of the system configuration (runtime tuning
// may have diverged from the value NewSystem was given).
func (s *System) Config() Config {
	s.cfgMu.RLock()
	defer s.cfgMu.RUnlock()
	return s.cfg
}

// Targeted config getters for the hot read paths; the full-snapshot
// Config() is for diagnostics and derived setup, these are for the
// runtime checks that race with Tuning setters.

func (s *System) aggDegree() int {
	s.cfgMu.RLock()
	defer s.cfgMu.RUnlock()
	return s.cfg.Agg.Degree
}

func (s *System) aggSplit() AggConfig {
	s.cfgMu.RLock()
	defer s.cfgMu.RUnlock()
	return s.cfg.Agg
}

func (s *System) replayBuffer() int {
	s.cfgMu.RLock()
	defer s.cfgMu.RUnlock()
	return s.cfg.Replay.Buffer
}

func (s *System) checkpointInterval() time.Duration {
	s.cfgMu.RLock()
	defer s.cfgMu.RUnlock()
	return s.cfg.Replay.CheckpointInterval
}

// OnStep registers a hook run at the end of every Step, after detector
// ticks, anti-entropy sweeps and the checkpoint cadence — where per-Step
// adaptive controllers observe and actuate.
func (s *System) OnStep(f func(now time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onStep = append(s.onStep, f)
}

// SetAggHosts restricts DHT-routed aggregation-tree interior placement
// to peers the filter accepts (nil lifts the restriction). Workloads use
// it to keep merge operators on a worker pool instead of landing them on
// monitored sources or the manager.
func (s *System) SetAggHosts(filter func(name string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aggHosts = filter
}

// newAggPlacer returns a stateful bounded placer for aggregation-tree
// interiors: each key offered lands on the first live, eligible ring
// successor of its hash that is below the running per-host cap
// ⌈placed/eligible⌉ — consistent hashing with bounded loads, the PR 4
// checkpoint-spreading guarantee applied to operator placement, so no
// worker stacks more than its fair share of a tree's merge fan-in.
// Offering the keys in sorted order makes the placement a deterministic
// function of ring membership: repair and membership rebalancing
// re-derive identical hosts by replaying the walk (AggPlacements).
// Empty when no eligible member is alive.
func (s *System) newAggPlacer() func(key string) string {
	used := map[string]int{}
	placed := 0
	return func(key string) string {
		s.mu.Lock()
		filter := s.aggHosts
		quarantined := make(map[string]bool, len(s.quarantined))
		for name := range s.quarantined {
			quarantined[name] = true
		}
		s.mu.Unlock()
		eligible := func(name string) bool {
			return s.Net.Alive(name) && !quarantined[name] && (filter == nil || filter(name))
		}
		pool := 0
		for _, m := range s.Ring.Nodes() {
			if eligible(m) {
				pool++
			}
		}
		if pool == 0 {
			return ""
		}
		placed++
		cap := (placed + pool - 1) / pool
		first := ""
		for _, cand := range s.Ring.Successors(key, s.Ring.Size()) {
			if !eligible(cand) {
				continue
			}
			if first == "" {
				first = cand
			}
			if used[cand] < cap {
				used[cand]++
				return cand
			}
		}
		if first != "" {
			used[first]++
		}
		return first
	}
}

// AggPlacements re-derives the bounded DHT placement of every interior
// routing key in a plan against the *current* ring: keys in sorted
// (= construction) order through a fresh bounded placer. This is the
// placement invariant — where each interior belongs right now — that
// deployment establishes, failover restores and membership changes
// rebalance toward.
func (s *System) AggPlacements(plan *algebra.Node) map[string]string {
	var keys []string
	plan.Walk(func(n *algebra.Node) {
		if n.AggKey != "" {
			keys = append(keys, n.AggKey)
		}
	})
	sort.Strings(keys)
	place := s.newAggPlacer()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = place(k)
	}
	return out
}

// nextStreamID allocates a fresh stream identifier on a peer.
func (s *System) nextStreamID(peer string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sidSeq[peer]++
	return fmt.Sprintf("s%d", s.sidSeq[peer])
}

func (s *System) nextTaskID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taskSeq++
	return fmt.Sprintf("task-%d", s.taskSeq)
}

// allocChannel creates and registers a task-owned channel at host,
// charging the host's load gauge — the shared bookkeeping of every
// deployment and re-deployment path.
func (s *System) allocChannel(t *Task, host, streamID string) *stream.Channel {
	ch := stream.NewChannel(host, streamID)
	s.registerChannel(ch)
	t.channels = append(t.channels, ch)
	s.Net.AddLoad(host, 1)
	t.loads = append(t.loads, host)
	return ch
}

// registerChannel enrolls a channel in the system-wide registry so
// ChannelIn nodes and external subscribers can find it, enabling the
// configured replay retention before the first publication.
func (s *System) registerChannel(ch *stream.Channel) {
	if buf := s.replayBuffer(); buf > 0 {
		ch.EnableReplay(buf)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.channels[ch.Ref()] = ch
}

// replayOn reports whether the lossless-failover layer is enabled.
func (s *System) replayOn() bool { return s.replayBuffer() > 0 }

// ReplayedItems returns the total number of items retransmitted from
// channel replay buffers (re-bind resumes and anti-entropy repairs).
func (s *System) ReplayedItems() uint64 { return s.replayed.Load() }

// Channel resolves a registered channel by reference.
func (s *System) Channel(ref stream.Ref) (*stream.Channel, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.channels[ref]
	return ch, ok
}

// SubscribeChannel subscribes consumerPeer to a registered channel,
// routing deliveries over the simulated network (bytes counted, latency
// applied). This is the paper's "subscribing to a channel".
func (s *System) SubscribeChannel(ref stream.Ref, consumerPeer string) (*stream.Subscription, error) {
	ch, ok := s.Channel(ref)
	if !ok {
		return nil, fmt.Errorf("peer: unknown channel %s", ref)
	}
	var deliver func(stream.Item, *stream.Queue)
	if ref.PeerID != consumerPeer {
		deliver = s.link.DeliverHook(ref.PeerID, consumerPeer)
	}
	return ch.Subscribe(consumerPeer, deliver), nil
}

// AnnounceReplica makes consumerPeer a re-publisher of a channel: it
// subscribes to the original stream, forwards every item into a new
// channel of its own, and records the replica in the stream-definition
// database — Section 5's "p′ may choose to publish this information to
// let it be known that he can also provide (p, s)". Later subscriptions
// whose optimizer prefers a close, unloaded provider will consume from
// the replica instead of the original.
func (s *System) AnnounceReplica(orig stream.Ref, consumerPeer string) (stream.Ref, error) {
	ch, ok := s.Channel(orig)
	if !ok {
		return stream.Ref{}, fmt.Errorf("peer: unknown channel %s", orig)
	}
	rep := stream.NewChannel(consumerPeer, s.nextStreamID(consumerPeer))
	if err := s.DB.PublishReplica(orig, rep.Ref()); err != nil {
		return stream.Ref{}, err
	}
	s.registerChannel(rep)
	s.Net.AddLoad(consumerPeer, 1)
	// Forward synchronously from inside the original's delivery fan-out:
	// an item is re-published by the replica the moment the original
	// publishes it, so producers tearing down (eos) cannot race ahead of
	// buffered data. Transport to the replica host still pays the
	// simulated link (accounting, latency, faults); items lost on a
	// faulty link simply never reach the replica's subscribers.
	f := &replicaForwarder{orig: orig, rep: rep}
	if s.replayOn() {
		// The replica preserves the original's sequence numbering, so a
		// consumer cursor positioned on the original stream stays valid
		// when failover re-binds it to the replica (and vice versa). The
		// forwarder's own cursor keeps the mirror gap-free: items lost on
		// the faulty link are refilled by the anti-entropy sweep before
		// anything later is mirrored.
		f.cur = stream.NewCursor(0, func(it stream.Item) {
			if it.EOS() {
				rep.Close()
				return
			}
			rep.PublishPreserved(it)
		})
		f.sub = ch.Subscribe(consumerPeer, func(it stream.Item, _ *stream.Queue) {
			if it.EOS() {
				f.cur.Terminate(it)
				return
			}
			if out, ok := s.link.Deliver(orig.PeerID, consumerPeer, it); ok {
				f.cur.Offer(out)
			}
		})
		f.cur.AdvanceTo(f.sub.StartSeq)
	} else {
		f.sub = ch.Subscribe(consumerPeer, func(it stream.Item, _ *stream.Queue) {
			if it.EOS() {
				rep.Close()
				return
			}
			if out, ok := s.link.Deliver(orig.PeerID, consumerPeer, it); ok {
				rep.Publish(out)
			}
		})
	}
	s.mu.Lock()
	s.forwarders = append(s.forwarders, f)
	s.mu.Unlock()
	return rep.Ref(), nil
}

// RefreshStreamStats records current item and volume counters for every
// registered channel into the stream-definition database (the Stats part
// of the paper's descriptors).
func (s *System) RefreshStreamStats() error {
	s.mu.Lock()
	chans := make([]*stream.Channel, 0, len(s.channels))
	for _, ch := range s.channels {
		chans = append(chans, ch)
	}
	s.mu.Unlock()
	for _, ch := range chans {
		items := ch.Published()
		stats := map[string]string{
			"items":  fmt.Sprintf("%d", items),
			"volume": fmt.Sprintf("%d", ch.Volume()),
		}
		if items > 0 {
			stats["avgItemSize"] = fmt.Sprintf("%d", ch.Volume()/items)
		}
		if err := s.DB.UpdateStats(ch.Ref(), stats); err != nil {
			return err
		}
	}
	return nil
}

// Quiesce blocks until every item released into the operator pipeline
// has been processed: no item waits in an operator input queue or runs
// in an Accept. Items a cursor parks behind a sequence gap are released
// by a later Step's anti-entropy sweep. Never call it from an operator.
func (s *System) Quiesce() { s.inflight.Wait() }

// run starts proc over its input queues, counting their items in the
// system's in-flight total.
func (s *System) run(proc operators.Proc, inputs []*stream.Queue, sink operators.Emit) *operators.Handle {
	for _, q := range inputs {
		q.Track(&s.inflight)
	}
	return operators.Run(proc, inputs, sink)
}

// Step advances the virtual clock by d and ticks every registered
// failure detector. Churn harnesses drive the system with repeated small
// Steps; detection latency is quantized to the step size, so use steps
// no coarser than the heartbeat interval when measuring it. With the
// replay layer on, each Step also runs the anti-entropy sweep (repairing
// link-fault losses from the upstream replay buffers) and, every
// CheckpointInterval, the operator checkpoint sweep.
//
// Step only advances a quiescent system: it Quiesces before the clock
// moves, after the detector ticks and their repairs, and after the
// anti-entropy sweep, so the checkpoint sweep (which releases no items)
// and the OnStep hooks see processed state too, and one seed gives one
// run. Call Quiesce to read results between Steps.
func (s *System) Step(d time.Duration) {
	if s.tele != nil {
		defer s.observeStep(time.Now())
	}
	s.Quiesce()
	s.Net.Clock().Advance(d)
	s.mu.Lock()
	dets := append([]FailureDetector(nil), s.detectors...)
	s.mu.Unlock()
	for _, det := range dets {
		det.Tick()
	}
	s.Quiesce()
	if s.replayOn() {
		s.syncReplicas()
		s.syncBindings()
		s.Quiesce()
	}
	if interval := s.checkpointInterval(); interval > 0 {
		now := s.Net.Clock().Now()
		s.mu.Lock()
		due := now-s.lastCkpt >= interval
		if due {
			s.lastCkpt = now
		}
		s.mu.Unlock()
		if due {
			s.CheckpointNow()
		}
	}
	now := s.Net.Clock().Now()
	s.mu.Lock()
	hooks := append([]func(time.Duration){}, s.onStep...)
	s.mu.Unlock()
	for _, f := range hooks {
		f(now)
	}
}

// Poll drives every polling alerter (RSS, Web page) across all running
// tasks once, returning the number of alerts produced. Simulation
// harnesses call it between workload steps.
func (s *System) Poll() (int, error) {
	s.mu.Lock()
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	total := 0
	var firstErr error
	for _, p := range peers {
		n, err := p.pollTasks()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}
