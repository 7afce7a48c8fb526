// Package operators implements P2PM's stream processors (Section 3.1):
// stateless ones — Filter/Select (σ), Restructure (Π), Union (∪) — and
// stateful ones — Join (⋈), Duplicate-removal, Group. Each processor is a
// Proc driven by a Runner goroutine that fans in its input queues,
// serializes processing, and emits into a sink (usually a channel
// publication on the owning peer).
package operators

import (
	"sync"
	"sync/atomic"

	"p2pm/internal/stream"
)

// Emit receives output items from a processor.
type Emit func(stream.Item)

// Proc is a stream processor. Accept is called serially (the runner
// fans in all inputs into one loop), so implementations need no locking
// for per-processor state.
type Proc interface {
	// Name identifies the operator kind ("Select", "Join", ...).
	Name() string
	// Accept processes one item arriving on input idx.
	Accept(idx int, it stream.Item, emit Emit)
	// Flush is called once, after every input has reached eos.
	Flush(emit Emit)
}

// Handle tracks a running operator.
type Handle struct {
	name string
	done chan struct{}
	in   atomic.Uint64
	out  atomic.Uint64
	ctl  chan func()
	// consumed[i] is the sequence number of the latest item accepted on
	// input i. Binding cursors deliver each input in sequence order, so
	// this is also "every sequence <= consumed[i] has been processed" —
	// the input-side coordinate of a checkpoint.
	consumed []atomic.Uint64
}

// Name returns the operator name.
func (h *Handle) Name() string { return h.name }

// Wait blocks until the operator has flushed and emitted eos.
func (h *Handle) Wait() { <-h.done }

// Done returns a channel closed when the operator finishes.
func (h *Handle) Done() <-chan struct{} { return h.done }

// ItemsIn returns the number of items consumed.
func (h *Handle) ItemsIn() uint64 { return h.in.Load() }

// ItemsOut returns the number of items emitted.
func (h *Handle) ItemsOut() uint64 { return h.out.Load() }

// Consumed returns the sequence number of the latest item accepted on
// input idx (0 before any sequenced item arrived).
func (h *Handle) Consumed(idx int) uint64 {
	if idx < 0 || idx >= len(h.consumed) {
		return 0
	}
	return h.consumed[idx].Load()
}

// SeedConsumed raises the consumed cursor of input idx to seq — a
// restored operator logically "has consumed" everything up to its
// checkpoint, and a checkpoint taken before the replayed suffix drains
// must not record the cursor as 0 (it would desynchronize input and
// output positions). Never lowers the cursor.
func (h *Handle) SeedConsumed(idx int, seq uint64) {
	if idx < 0 || idx >= len(h.consumed) {
		return
	}
	for {
		cur := h.consumed[idx].Load()
		if seq <= cur || h.consumed[idx].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Sync runs f serialized with the operator's processing loop: no Accept
// executes concurrently, so f observes a consistent cut of the
// processor's state, its consumed cursors and its emissions — exactly
// what a checkpoint must capture atomically. If the operator already
// finished, f runs inline (the state is final).
func (h *Handle) Sync(f func()) {
	done := make(chan struct{})
	wrapped := func() { f(); close(done) }
	select {
	case h.ctl <- wrapped:
		<-done
	case <-h.done:
		f()
	}
}

// tagged is an input item annotated with its input index.
type tagged struct {
	idx int
	it  stream.Item
}

// Run starts the processor over the given input queues. The sink receives
// every output item followed by exactly one eos item when all inputs have
// terminated. Run returns immediately; use the Handle to wait.
//
// Run is the reader of tracked queues (stream.Queue.Track): an item is
// reported Done once its Accept returned, an input's eos once the Flush
// and the output eos it triggers have been emitted, so downstream queues
// always count the outputs before the inputs stop counting.
func Run(p Proc, inputs []*stream.Queue, sink Emit) *Handle {
	h := &Handle{
		name:     p.Name(),
		done:     make(chan struct{}),
		ctl:      make(chan func()),
		consumed: make([]atomic.Uint64, len(inputs)),
	}
	merged := make(chan tagged)
	// atEOS[i] is set when input i stopped at its eos rather than at a
	// close; read only after every reader exited.
	atEOS := make([]bool, len(inputs))
	var wg sync.WaitGroup
	for i, q := range inputs {
		wg.Add(1)
		go func(idx int, q *stream.Queue) {
			defer wg.Done()
			for {
				it, ok := q.Pop()
				if !ok {
					return
				}
				if it.EOS() {
					q.End()
					atEOS[idx] = true
					return
				}
				merged <- tagged{idx: idx, it: it}
			}
		}(i, q)
	}
	go func() {
		wg.Wait()
		close(merged)
	}()
	go func() {
		defer close(h.done)
		emit := func(it stream.Item) {
			if !it.EOS() {
				h.out.Add(1)
			}
			sink(it)
		}
	loop:
		for {
			select {
			case t, ok := <-merged:
				if !ok {
					break loop
				}
				h.in.Add(1)
				h.SeedConsumed(t.idx, t.it.Seq) // monotonic raise
				p.Accept(t.idx, t.it, emit)
				inputs[t.idx].Done()
			case f := <-h.ctl:
				f()
			}
		}
		p.Flush(emit)
		sink(stream.EOSItem(p.Name()))
		for i, q := range inputs {
			if atEOS[i] {
				q.Done()
			}
		}
	}()
	return h
}
