package peer

import (
	"bytes"
	"sync"
	"sync/atomic"

	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/p2pml"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
)

// Task is one deployed monitoring subscription, as tracked by its
// Subscription Manager's database.
type Task struct {
	ID      string
	Manager string
	Sub     *p2pml.Subscription
	Plan    *algebra.Node
	Reuse   *reuse.Result // nil when reuse was disabled

	refs       map[*algebra.Node]stream.Ref // current stream identity per operator
	origRefs   map[*algebra.Node]stream.Ref // first-deployment identity (replica records chain to it)
	channels   []*stream.Channel
	subs       []*stream.Subscription // subscriptions to channels this task owns
	extSubs    []*stream.Subscription // subscriptions to shared channels
	extQueues  []*stream.Queue        // consumer queues re-bound to shared channels
	bindings   []*inputBinding        // operator-input wiring, for failover re-binding
	procs      map[*algebra.Node]*procInstance
	degraded   []string // operators lost without a repair path
	handles    []*operators.Handle
	closers    []func()
	pollers    []func() (int, error)
	loads      []string
	resultCh   *stream.Channel
	namedCh    *stream.Channel
	resultSub  *stream.Subscription
	resultQ    *stream.Queue         // stable result queue, survives publisher migration
	resultCur  *stream.Cursor        // dedup/ordering gate feeding resultQ
	subTargets map[string]*subTarget // per-BySubscribe-target gates, survive publisher migration

	// Human-facing publication sinks (BY email/file/rss).
	Mailbox SafeBuffer
	FileOut SafeBuffer
	RSSOut  *operators.RSSPublisher

	dynEvents atomic.Uint64
	stopOnce  sync.Once
}

// inputBinding records one operator-input edge of the deployed plan: the
// consumer operator, the plan node producing the stream it reads, and the
// live subscription feeding its queue. Failure handling re-binds the
// queue to a replacement producer by detaching sub and re-subscribing —
// the consumer keeps reading the same queue and never observes the swap.
type inputBinding struct {
	consumer     *algebra.Node
	child        *algebra.Node
	consumerPeer string
	queue        *stream.Queue
	sub          *stream.Subscription
	// cursor gates deliveries into queue: in sequence order, exactly
	// once, tracking where a re-bound subscription must resume.
	cursor *stream.Cursor
	// src is the channel currently feeding the binding.
	src *stream.Channel
}

// subTarget is one BySubscribe delivery destination: the target peer and
// the cursor gating its incoming queue. Task-level so the gate survives
// publisher migrations, and registered with the anti-entropy sweep like
// any binding cursor.
type subTarget struct {
	peer string
	cur  *stream.Cursor
	dest *stream.Queue
}

// procInstance tracks one deployed processor (or publisher fan-out): the
// running Proc and its Handle, so the checkpoint sweep can capture a
// consistent (state, consumed cursors, output sequence) cut and failover
// can restore it.
type procInstance struct {
	proc   operators.Proc
	handle *operators.Handle
}

// Degraded lists operators this task lost without a repair path (e.g. an
// alerter whose monitored peer crashed: its events originate there, so
// nothing can take over). Empty for fully healthy or fully repaired
// tasks.
func (t *Task) Degraded() []string { return append([]string(nil), t.degraded...) }

// DynEventsProcessed counts membership events the task's dynamic alerter
// managers have fully applied; callers can synchronize on it before
// driving traffic at newly joined peers. After a manager migration the
// count includes the replayed membership history the new manager
// re-applied — it is a progress watermark, not a distinct-event count.
func (t *Task) DynEventsProcessed() uint64 { return t.dynEvents.Load() }

// Results returns the queue of result items, subscribed since deployment
// (no items are missed between Subscribe and the first read). The queue
// is stable across publisher migrations: failover re-binds the
// underlying subscription and the cursor deduplicates the overlap.
func (t *Task) Results() *stream.Queue {
	if t.resultQ != nil {
		return t.resultQ
	}
	return t.resultSub.Queue
}

// ResultChannel returns the named channel the task publishes under
// (e.g. alertQoS@p), so other peers and tasks can subscribe to it.
func (t *Task) ResultChannel() stream.Ref {
	if t.namedCh != nil {
		return t.namedCh.Ref()
	}
	return t.resultCh.Ref()
}

// StreamRefs exposes the per-operator stream identities assigned at
// deployment (diagnostics, Figure 4 style inspection).
func (t *Task) StreamRefs() map[*algebra.Node]stream.Ref { return t.refs }

// Poll drives the task's polling alerters (RSS, Web pages) once and
// returns the number of alerts produced.
func (t *Task) Poll() (int, error) {
	total := 0
	var firstErr error
	for _, p := range t.pollers {
		n, err := p()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// OperatorsDeployed counts the operators this task actually deployed
// (channels created), excluding reused streams.
func (t *Task) OperatorsDeployed() int { return len(t.channels) }

// IngestByPeer sums items consumed by the task's operators per hosting
// peer — the per-peer ingest load the X4 aggregation-tree experiment
// compares between flat and tree deployments. Attribution follows each
// operator's current placement (after migrations, the live host).
func (t *Task) IngestByPeer() map[string]uint64 {
	out := make(map[string]uint64)
	for n, inst := range t.procs {
		out[n.Peer] += inst.handle.ItemsIn()
	}
	return out
}

// ItemsProcessed sums items consumed across the task's own operators —
// the CPU-side measure of the reuse experiments.
func (t *Task) ItemsProcessed() uint64 {
	var total uint64
	for _, h := range t.handles {
		total += h.ItemsIn()
	}
	return total
}

// Stop tears the task down in two phases. First the task's own alerters
// emit eos and subscriptions to *shared* channels (reused streams, which
// will never close on our account) are cancelled; that guarantees every
// operator's inputs terminate, so eos cascades cleanly through the
// task's own channels without losing buffered items. Then the operator
// goroutines are awaited and everything remaining is closed.
func (t *Task) Stop() {
	t.stopOnce.Do(func() {
		for _, c := range t.closers {
			c()
		}
		for _, s := range t.extSubs {
			s.Unsubscribe()
		}
		// Queues re-bound to shared channels are not closed by their
		// subscription's own queue; close them here so their consumers
		// terminate like any other shared-source reader.
		for _, q := range t.extQueues {
			q.Close()
		}
		for _, h := range t.handles {
			h.Wait()
		}
		for _, ch := range t.channels {
			ch.Close()
		}
		for _, s := range t.subs {
			s.Unsubscribe()
		}
		if t.resultSub != nil {
			t.resultSub.Unsubscribe()
		}
	})
}

// Wait blocks until all operator goroutines have finished (after the
// sources have closed).
func (t *Task) Wait() {
	for _, h := range t.handles {
		h.Wait()
	}
}

// SafeBuffer is a mutex-guarded bytes.Buffer usable as an io.Writer sink
// by publisher operators while tests read it concurrently.
type SafeBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// Write implements io.Writer.
func (s *SafeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// String returns the accumulated contents.
func (s *SafeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// Len returns the accumulated size.
func (s *SafeBuffer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}
