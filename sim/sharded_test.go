package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRunBoundarySemantics pins the inclusive/exclusive horizon contract that
// the epoch barrier depends on: RunUntil(h) fires events at exactly h and
// advances the clock to h; RunBefore(h) leaves events at exactly h pending
// and leaves the clock at the last fired event. An event scheduled exactly at
// an epoch boundary must therefore survive RunBefore and fire in the next
// epoch, after cross-shard injection.
func TestRunBoundarySemantics(t *testing.T) {
	const h = 100 * time.Millisecond
	runUntil := func(k *Kernel) error { return k.RunUntil(h) }
	runBefore := func(k *Kernel) error { return k.RunBefore(h) }
	cases := []struct {
		name        string
		eventAt     time.Duration
		run         func(k *Kernel) error
		wantFired   bool
		wantPending int
		wantNow     time.Duration
	}{
		{"RunUntil fires before-horizon event", h - time.Nanosecond, runUntil, true, 0, h},
		{"RunUntil fires at-horizon event", h, runUntil, true, 0, h},
		{"RunUntil leaves after-horizon event", h + time.Nanosecond, runUntil, false, 1, h},
		{"RunBefore fires before-horizon event", h - time.Nanosecond, runBefore, true, 0, h - time.Nanosecond},
		{"RunBefore leaves at-horizon event", h, runBefore, false, 1, 0},
		{"RunBefore leaves after-horizon event", h + time.Nanosecond, runBefore, false, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			fired := false
			k.At(tc.eventAt, "boundary", func() { fired = true })
			if err := tc.run(k); err != nil {
				t.Fatalf("run: %v", err)
			}
			if fired != tc.wantFired {
				t.Errorf("fired = %v, want %v", fired, tc.wantFired)
			}
			if got := k.Pending(); got != tc.wantPending {
				t.Errorf("pending = %d, want %d", got, tc.wantPending)
			}
			if got := k.Now(); got != tc.wantNow {
				t.Errorf("now = %v, want %v", got, tc.wantNow)
			}
		})
	}
}

// After RunBefore leaves the clock behind the horizon, the caller must still
// be able to schedule at the boundary instant — that is the whole point of
// the exclusive bound (cross-shard injection at the barrier).
func TestRunBeforeAllowsSchedulingAtHorizon(t *testing.T) {
	const h = 50 * time.Millisecond
	k := NewKernel()
	k.At(h-time.Millisecond, "early", func() {})
	if err := k.RunBefore(h); err != nil {
		t.Fatal(err)
	}
	fired := false
	k.At(h, "injected", func() { fired = true }) // must not panic
	if err := k.RunUntil(h); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("injected boundary event did not fire")
	}
}

func TestAdvanceTo(t *testing.T) {
	k := NewKernel()
	k.AdvanceTo(10 * time.Millisecond)
	if got := k.Now(); got != 10*time.Millisecond {
		t.Fatalf("now = %v, want 10ms", got)
	}
	t.Run("panics past pending event", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		k.At(15*time.Millisecond, "pending", func() {})
		k.AdvanceTo(20 * time.Millisecond)
	})
	t.Run("panics going backwards", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		k.AdvanceTo(5 * time.Millisecond)
	})
}

// chanExchanger is a test Exchanger wiring two kernels: messages sent from
// one shard are buffered and injected as events on the other at Flush.
type chanExchanger struct {
	mu      sync.Mutex
	kernels []*Kernel
	pending []injected
}

type injected struct {
	at    time.Duration
	shard int
	fn    func()
}

func (e *chanExchanger) send(at time.Duration, shard int, fn func()) {
	e.mu.Lock()
	e.pending = append(e.pending, injected{at, shard, fn})
	e.mu.Unlock()
}

func (e *chanExchanger) Flush() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.pending)
	for _, m := range e.pending {
		e.kernels[m.shard].At(m.at, "injected", m.fn)
	}
	e.pending = e.pending[:0]
	return n
}

// pingPong builds a two-shard group where each shard bounces a message to the
// other with latency exactly equal to the lookahead (the hardest legal case:
// arrivals land exactly on epoch boundaries).
func pingPong(t *testing.T, rounds int, opts ...GroupOption) (*ShardGroup, *[]time.Duration) {
	t.Helper()
	const L = 10 * time.Millisecond
	k0, k1 := NewKernel(), NewKernel()
	ks := []*Kernel{k0, k1}
	ex := &chanExchanger{kernels: ks}
	log := &[]time.Duration{}
	var bounce func(shard, hops int) func()
	bounce = func(shard, hops int) func() {
		return func() {
			*log = append(*log, ks[shard].Now())
			if hops <= 0 {
				return
			}
			next := 1 - shard
			ex.send(ks[shard].Now()+L, next, bounce(next, hops-1))
		}
	}
	k0.At(0, "start", bounce(0, rounds))
	g, err := NewShardGroup(L, ks, ex, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, log
}

func TestShardGroupPingPongRun(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []GroupOption
	}{
		{"parallel", nil},
		{"sequential", []GroupOption{WithSequentialGroup()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			g, log := pingPong(t, 5, mode.opts...)
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond}
			if len(*log) != len(want) {
				t.Fatalf("fired %d events, want %d: %v", len(*log), len(want), *log)
			}
			for i, at := range want {
				if (*log)[i] != at {
					t.Fatalf("event %d at %v, want %v", i, (*log)[i], at)
				}
			}
			st := g.Stats()
			if st.Injected != 5 {
				t.Errorf("injected = %d, want 5", st.Injected)
			}
			if st.TotalEvents != 6 {
				t.Errorf("total events = %d, want 6", st.TotalEvents)
			}
			if g.Now() != 50*time.Millisecond {
				t.Errorf("now = %v, want 50ms", g.Now())
			}
		})
	}
}

func TestShardGroupRunUntilStopsAtHorizon(t *testing.T) {
	g, log := pingPong(t, 10)
	if err := g.RunUntil(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Bounces at 0, 10, 20 ms fired; 30 ms+ still pending.
	if len(*log) != 3 {
		t.Fatalf("fired %d events, want 3: %v", len(*log), *log)
	}
	for _, k := range g.Kernels() {
		if k.Now() != 25*time.Millisecond {
			t.Fatalf("shard clock %v, want 25ms", k.Now())
		}
	}
	// Resume to completion: remaining bounces fire at 30..100 ms.
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 11 {
		t.Fatalf("fired %d events after drain, want 11", len(*log))
	}
	if g.Now() != 100*time.Millisecond {
		t.Fatalf("now = %v, want 100ms", g.Now())
	}
}

// An arrival exactly at a RunUntil horizon must fire in that call, matching
// Kernel.RunUntil's inclusive boundary.
func TestShardGroupRunUntilInclusiveBoundary(t *testing.T) {
	g, log := pingPong(t, 10)
	if err := g.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 4 {
		t.Fatalf("fired %d events, want 4 (0,10,20,30ms): %v", len(*log), *log)
	}
}

func TestShardGroupStats(t *testing.T) {
	g, _ := pingPong(t, 7)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Epochs == 0 {
		t.Fatal("no epochs recorded")
	}
	if st.TotalEvents != 8 {
		t.Fatalf("total = %d, want 8", st.TotalEvents)
	}
	var perShard uint64
	for _, n := range st.EventsPerShard {
		perShard += n
	}
	if perShard != st.TotalEvents {
		t.Fatalf("per-shard sum %d != total %d", perShard, st.TotalEvents)
	}
	// Strictly serial workload: critical path equals total, parallelism 1.
	if st.CriticalPathEvents != st.TotalEvents {
		t.Fatalf("critical path %d, want %d on a serial workload", st.CriticalPathEvents, st.TotalEvents)
	}
	if p := st.Parallelism(); p != 1 {
		t.Fatalf("parallelism = %v, want 1", p)
	}
}

func TestShardGroupParallelismOnIndependentShards(t *testing.T) {
	// Two shards with identical independent workloads: every epoch runs both
	// in parallel, so the critical path is half the total.
	k0, k1 := NewKernel(), NewKernel()
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Millisecond
		k0.At(at, "w0", func() {})
		k1.At(at, "w1", func() {})
	}
	g, err := NewShardGroup(100*time.Millisecond, []*Kernel{k0, k1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.TotalEvents != 20 {
		t.Fatalf("total = %d, want 20", st.TotalEvents)
	}
	if p := st.Parallelism(); p != 2 {
		t.Fatalf("parallelism = %v, want 2", p)
	}
}

func TestShardGroupContextCancel(t *testing.T) {
	g, _ := pingPong(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := g.RunContext(ctx)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

func TestShardGroupRejectsZeroLookahead(t *testing.T) {
	if _, err := NewShardGroup(0, []*Kernel{NewKernel()}, nil); err == nil {
		t.Fatal("expected error for zero lookahead")
	}
	if _, err := NewShardGroup(time.Millisecond, nil, nil); err == nil {
		t.Fatal("expected error for no kernels")
	}
}

func TestShardGroupCloseIdempotent(t *testing.T) {
	g, _ := pingPong(t, 2)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close()
}
