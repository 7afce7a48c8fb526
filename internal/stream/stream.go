// Package stream implements the data plane of P2PM: possibly-infinite
// sequences of XML trees terminated by an explicit eos symbol, and
// channels — published streams with a dynamic set of subscribers — which
// are the paper's pub/sub primitive (Section 3.2).
package stream

import (
	"fmt"
	"sync"
	"time"

	"p2pm/internal/xmltree"
)

// Item is one element of an XML stream. An Item with a nil Tree is the
// eos symbol: it terminates the stream.
type Item struct {
	Tree *xmltree.Node
	// Seq is the item's sequence number within its producing stream.
	Seq uint64
	// Source identifies the producing stream as "streamID@peerID".
	Source string
	// Time is the virtual timestamp at which the item was produced.
	Time time.Duration
}

// EOS reports whether the item is the end-of-stream symbol.
func (it Item) EOS() bool { return it.Tree == nil }

// EOSItem returns an eos item attributed to the given source.
func EOSItem(source string) Item { return Item{Source: source} }

// Ref names a stream as the pair (StreamID, PeerID), which per the paper
// fully identifies it.
type Ref struct {
	StreamID string
	PeerID   string
}

// String renders the paper's s@p notation.
func (r Ref) String() string { return r.StreamID + "@" + r.PeerID }

// ParseRef parses "s@p" notation.
func ParseRef(s string) (Ref, error) {
	for i := 0; i < len(s); i++ {
		if s[i] == '@' {
			if i == 0 || i == len(s)-1 {
				break
			}
			return Ref{StreamID: s[:i], PeerID: s[i+1:]}, nil
		}
	}
	return Ref{}, fmt.Errorf("stream: invalid ref %q (want streamID@peerID)", s)
}

// Inflight counts the items that tracked queues hold or that their
// readers are still processing, so a driver can wait for the exact
// moment every released item has been handled instead of guessing it
// from timing. The zero value is ready to use.
type Inflight struct {
	mu   sync.Mutex
	zero sync.Cond
	n    int64
}

func (f *Inflight) add(d int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n += d; f.n == 0 {
		f.zero.Broadcast()
	}
}

// Len returns the number of items currently counted.
func (f *Inflight) Len() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Wait blocks until the count is zero.
func (f *Inflight) Wait() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.zero.L = &f.mu
	for f.n != 0 {
		f.zero.Wait()
	}
}

// Queue is an unbounded FIFO of items with a blocking Pop. Operators in a
// deployed plan communicate through queues so a slow consumer never
// deadlocks a fan-out; the high-water mark is tracked so experiments can
// report buffer pressure.
//
// A queue may be tracked by an Inflight (Track): every item it buffers,
// eos included, counts there until its reader reports it handled
// (Done). Items the reader will never see — pushed to a closed queue,
// or left behind the eos it stopped at (End) — are not counted.
type Queue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	items     []Item
	closed    bool
	track     *Inflight
	highWater int
	pushed    uint64
}

// NewQueue returns an empty open queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends an item. Pushing to a closed queue is a no-op (late
// publishers lose the race with Unsubscribe, matching channel semantics).
func (q *Queue) Push(it Item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if q.track != nil {
		q.track.add(1)
	}
	q.items = append(q.items, it)
	q.pushed++
	if len(q.items) > q.highWater {
		q.highWater = len(q.items)
	}
	q.cond.Signal()
}

// Pop removes and returns the oldest item, blocking until one is
// available. It returns ok=false once the queue is closed and drained.
func (q *Queue) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return Item{}, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it, true
}

// TryPop is a non-blocking Pop; ok is false when the queue is empty or
// closed-and-drained.
func (q *Queue) TryPop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Item{}, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it, true
}

// Track counts the queue's items in f: those already buffered and every
// later push. Call it before the reader starts.
func (q *Queue) Track(f *Inflight) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.track = f
	f.add(int64(len(q.items)))
}

// Done reports one popped item (eos included) handled by the reader.
func (q *Queue) Done() {
	if q.track != nil {
		q.track.add(-1)
	}
}

// End is called by a reader that stops at eos: it discards the items
// behind it and closes the queue. The eos stays counted until Done.
func (q *Queue) End() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.track != nil {
		q.track.add(-int64(len(q.items)))
	}
	q.items = nil
	q.closed = true
}

// Close marks the queue closed; blocked Pops return.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.cond.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Len returns the number of buffered items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// HighWater returns the maximum number of items ever buffered.
func (q *Queue) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.highWater
}

// Pushed returns the total number of items ever pushed.
func (q *Queue) Pushed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed
}

// Drain pops until eos or queue close and returns all non-eos items.
// Intended for tests and examples on finite streams.
func (q *Queue) Drain() []Item {
	var out []Item
	for {
		it, ok := q.Pop()
		if !ok || it.EOS() {
			return out
		}
		out = append(out, it)
	}
}
