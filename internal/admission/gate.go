// Package admission is the daemon's overload-control subsystem: a weighted
// concurrency gate with a bounded, deadline-aware wait queue and a global
// in-flight bytes budget (Gate). The gate is the daemon's only load
// shedder: an arrival is admitted, parked briefly in FIFO order, or
// rejected with a typed error. See DESIGN.md §14 for how rsonpathd uses it.
//
// The package is engine-agnostic on purpose: nothing here knows about JSON,
// HTTP, or queries. A request is a (weight, bytes) pair. The server layer
// translates its domain into those terms, which keeps the gate unit-testable
// without a socket.
package admission

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// The typed rejection vocabulary. The server maps these to HTTP statuses:
// ErrTooLarge is the caller's fault (413), everything else is load (429 +
// Retry-After).
var (
	// ErrQueueFull rejects an arrival when every slot is busy and the wait
	// queue is at capacity. Queueing deeper would only grow latency for
	// work that will likely time out anyway — shed instead.
	ErrQueueFull = errors.New("admission: wait queue full")
	// ErrDeadline rejects an arrival whose deadline expired before a slot
	// freed (or that arrived already expired). Serving it would spend
	// capacity on an answer nobody is waiting for.
	ErrDeadline = errors.New("admission: deadline expired while queued")
	// ErrBytesBudget sheds an arrival that fits the absolute budget but not
	// the budget left after currently admitted work. Retry when in-flight
	// bytes drain.
	ErrBytesBudget = errors.New("admission: in-flight bytes budget exhausted")
	// ErrTooLarge rejects an arrival larger than the whole bytes budget; it
	// can never be admitted, so retrying is pointless.
	ErrTooLarge = errors.New("admission: request exceeds the bytes budget")
)

// GateConfig sizes a Gate. The zero value is not useful; use NewGate, which
// applies the documented defaults.
type GateConfig struct {
	// Capacity is the total weight of concurrently admitted work, in
	// abstract weight units (the caller defines the scale; rsonpathd uses
	// request class × size factor).
	Capacity int64
	// QueueDepth bounds the wait queue; 0 disables queueing entirely (all
	// contended arrivals are shed).
	QueueDepth int
	// BytesBudget bounds the sum of in-flight request bytes; <= 0 means
	// unlimited.
	BytesBudget int64
}

// Gate is the admission point: Acquire either admits work immediately,
// parks it in a bounded FIFO queue, or rejects it with one of the typed
// errors above — it never blocks unboundedly. Weights model heterogeneous
// request cost (a 100 MB NDJSON batch is not one unit of work), and the
// bytes budget caps aggregate payload memory independently of slot count.
type Gate struct {
	mu      sync.Mutex
	cfg     GateConfig
	used    int64 // admitted weight
	bytes   int64 // admitted payload bytes
	waiters *list.List
}

// waiter is one parked arrival. ready is closed exactly once, after granted
// is set under the gate lock; a waiter abandoned by its context is unlinked
// under the same lock, so a grant and an abandonment cannot race.
type waiter struct {
	weight  int64
	bytes   int64
	ready   chan struct{}
	granted bool
}

// NewGate builds a gate from cfg. Capacity < 1 becomes 1 (a zero-capacity
// gate would deadlock every caller).
func NewGate(cfg GateConfig) *Gate {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	return &Gate{cfg: cfg, waiters: list.New()}
}

// Acquire admits (weight, bytes) of work, blocking in the bounded queue
// only while ctx allows. On success it returns a release closure that must
// be called exactly when the work finishes (it is idempotent). On rejection
// the error is one of ErrQueueFull, ErrDeadline, ErrBytesBudget, or
// ErrTooLarge.
//
// The bytes budget is checked at arrival, not in the queue: an arrival that
// does not fit the remaining budget is shed immediately (429 at the server
// layer) rather than parked, because payload memory is the resource the
// budget protects and parking the request would not make its bytes smaller.
// Weight contention, by contrast, queues: slots drain quickly and FIFO
// order keeps heavy requests from being starved by light ones.
func (g *Gate) Acquire(ctx context.Context, weight, bytes int64) (release func(), err error) {
	if weight < 1 {
		weight = 1
	}
	if weight > g.cfg.Capacity {
		// A single arrival heavier than the whole gate still gets to run —
		// alone. Clamping (rather than rejecting) keeps the weight scale
		// decoupled from the capacity scale.
		weight = g.cfg.Capacity
	}
	if bytes < 0 {
		bytes = 0
	}
	if g.cfg.BytesBudget > 0 && bytes > g.cfg.BytesBudget {
		return nil, ErrTooLarge
	}
	if err := ctx.Err(); err != nil {
		return nil, ErrDeadline
	}

	g.mu.Lock()
	if g.cfg.BytesBudget > 0 && g.bytes+bytes > g.cfg.BytesBudget {
		g.mu.Unlock()
		return nil, ErrBytesBudget
	}
	if g.waiters.Len() == 0 && g.used+weight <= g.cfg.Capacity {
		g.used += weight
		g.bytes += bytes
		g.mu.Unlock()
		return g.releaser(weight, bytes), nil
	}
	if g.waiters.Len() >= g.cfg.QueueDepth {
		g.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{weight: weight, bytes: bytes, ready: make(chan struct{})}
	el := g.waiters.PushBack(w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return g.releaser(weight, bytes), nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// The grant won the race against the deadline; the work was
			// admitted, so hand the slot to the caller anyway — it will
			// observe its context at the next cancellation point.
			g.mu.Unlock()
			return g.releaser(weight, bytes), nil
		}
		g.waiters.Remove(el)
		g.mu.Unlock()
		return nil, ErrDeadline
	}
}

// releaser returns the idempotent release closure for an admitted grant.
func (g *Gate) releaser(weight, bytes int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.used -= weight
			g.bytes -= bytes
			g.grantLocked()
			g.mu.Unlock()
		})
	}
}

// grantLocked admits queued waiters in FIFO order while both resources
// fit. Head-of-line blocking is deliberate: granting around a heavy waiter
// would starve it forever under a stream of light arrivals.
func (g *Gate) grantLocked() {
	for el := g.waiters.Front(); el != nil; el = g.waiters.Front() {
		w := el.Value.(*waiter)
		if g.used+w.weight > g.cfg.Capacity {
			return
		}
		if g.cfg.BytesBudget > 0 && g.bytes+w.bytes > g.cfg.BytesBudget {
			return
		}
		g.used += w.weight
		g.bytes += w.bytes
		w.granted = true
		close(w.ready)
		g.waiters.Remove(el)
	}
}

// GateSnapshot is a point-in-time view of the gate for metrics and health
// reporting.
type GateSnapshot struct {
	Capacity    int64
	Used        int64
	BytesBudget int64
	Bytes       int64
	QueueDepth  int // waiters currently parked
	QueueCap    int
}

// Snapshot reads the gate's current occupancy.
func (g *Gate) Snapshot() GateSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateSnapshot{
		Capacity:    g.cfg.Capacity,
		Used:        g.used,
		BytesBudget: g.cfg.BytesBudget,
		Bytes:       g.bytes,
		QueueDepth:  g.waiters.Len(),
		QueueCap:    g.cfg.QueueDepth,
	}
}
