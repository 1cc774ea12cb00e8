package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// acquireDone runs Acquire in a goroutine and reports completion on a
// channel, so tests can assert "still queued" vs "granted".
func acquireDone(g *Gate, ctx context.Context, weight, bytes int64) chan error {
	done := make(chan error, 1)
	go func() {
		release, err := g.Acquire(ctx, weight, bytes)
		if err == nil {
			release()
		}
		done <- err
	}()
	return done
}

func TestGateAdmitsUpToCapacity(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 3, QueueDepth: 4})
	var rels []func()
	for i := 0; i < 3; i++ {
		rel, err := g.Acquire(context.Background(), 1, 0)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	if snap := g.Snapshot(); snap.Used != 3 || snap.QueueDepth != 0 {
		t.Fatalf("snapshot = %+v, want used 3 queue 0", snap)
	}
	// A fourth arrival queues; releasing one slot grants it FIFO.
	done := acquireDone(g, context.Background(), 1, 0)
	select {
	case err := <-done:
		t.Fatalf("fourth acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	rels[0]()
	if err := <-done; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	rels[1]()
	rels[2]()
	if snap := g.Snapshot(); snap.Used != 0 || snap.Bytes != 0 {
		t.Fatalf("not drained: %+v", snap)
	}
}

func TestGateReleaseIdempotent(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 2, QueueDepth: 1})
	rel, err := g.Acquire(context.Background(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // double release must not free a second slot
	if snap := g.Snapshot(); snap.Used != 0 || snap.Bytes != 0 {
		t.Fatalf("double release corrupted accounting: %+v", snap)
	}
}

func TestGateQueueFull(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 1, QueueDepth: 1})
	rel, err := g.Acquire(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	queued := acquireDone(g, context.Background(), 1, 0)
	time.Sleep(10 * time.Millisecond) // let it park
	if _, err := g.Acquire(context.Background(), 1, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow arrival: err = %v, want ErrQueueFull", err)
	}
	rel()
	if err := <-queued; err != nil {
		t.Fatalf("queued arrival: %v", err)
	}
}

func TestGateDeadline(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 1, QueueDepth: 2})
	rel, err := g.Acquire(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	// Already-expired arrivals are rejected immediately, not parked.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Acquire(expired, 1, 0); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ctx: err = %v, want ErrDeadline", err)
	}

	// A parked arrival whose deadline fires is unlinked and rejected.
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if _, err := g.Acquire(ctx, 1, 0); !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued past deadline: err = %v, want ErrDeadline", err)
	}
	if snap := g.Snapshot(); snap.QueueDepth != 0 {
		t.Fatalf("abandoned waiter still queued: %+v", snap)
	}
}

func TestGateBytesBudget(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 8, QueueDepth: 8, BytesBudget: 100})
	// Absolutely oversized: can never be admitted.
	if _, err := g.Acquire(context.Background(), 1, 101); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized: err = %v, want ErrTooLarge", err)
	}
	rel, err := g.Acquire(context.Background(), 1, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Over the *remaining* budget: shed immediately, not queued.
	if _, err := g.Acquire(context.Background(), 1, 30); !errors.Is(err, ErrBytesBudget) {
		t.Fatalf("over remaining budget: err = %v, want ErrBytesBudget", err)
	}
	rel()
	rel2, err := g.Acquire(context.Background(), 1, 30)
	if err != nil {
		t.Fatalf("after drain: %v", err)
	}
	rel2()
}

func TestGateHeavyRequestClampedToCapacity(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 4, QueueDepth: 2})
	rel, err := g.Acquire(context.Background(), 100, 0) // clamped to 4: runs alone
	if err != nil {
		t.Fatal(err)
	}
	done := acquireDone(g, context.Background(), 1, 0)
	select {
	case err := <-done:
		t.Fatalf("light arrival ran alongside a full-gate request: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	rel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestGateConcurrentStress(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 4, QueueDepth: 64, BytesBudget: 1 << 20})
	var wg sync.WaitGroup
	var mu sync.Mutex
	inflight, peak := 0, 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := g.Acquire(context.Background(), 1, 128)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inflight--
			mu.Unlock()
			rel()
		}()
	}
	wg.Wait()
	if peak > 4 {
		t.Fatalf("peak concurrency %d exceeds capacity 4", peak)
	}
	if snap := g.Snapshot(); snap.Used != 0 || snap.Bytes != 0 || snap.QueueDepth != 0 {
		t.Fatalf("not drained: %+v", snap)
	}
}
