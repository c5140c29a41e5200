package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// nopHandler is a stateless handler: forked kernels may keep pointing at it,
// so the tests below need no RemapHandlers.
type nopHandler struct{}

func (nopHandler) HandleEvent(uint64) {}

// periodicGroup builds a group with one kernel per period: kernel i fires an
// event every periods[i] up to (excluding) until; a zero period leaves the
// kernel empty. With a 1 ms lookahead and periods that are multiples of 1 ms,
// every epoch is [n ms, n+1 ms) and the shards active in it are exactly those
// whose period divides n.
func periodicGroup(t *testing.T, periods []time.Duration, until time.Duration, opts ...GroupOption) *ShardGroup {
	t.Helper()
	kernels := make([]*Kernel, len(periods))
	for i, p := range periods {
		kernels[i] = NewKernel()
		for at := time.Duration(0); p > 0 && at < until; at += p {
			kernels[i].AtHandler(at, "tick", nopHandler{}, 0)
		}
	}
	g, err := NewShardGroup(time.Millisecond, kernels, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// A shard with nothing to do is never handed an epoch: with the second kernel
// empty every epoch runs inline on the caller and no worker is started.
func TestShardGroupIdleShardRunsInline(t *testing.T) {
	g := periodicGroup(t, []time.Duration{time.Millisecond, 0}, 20*time.Millisecond)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Epochs != 20 || st.InlineEpochs != st.Epochs {
		t.Fatalf("epochs %d, inline %d: want 20 epochs, all inline", st.Epochs, st.InlineEpochs)
	}
	if st.Dispatched != 0 {
		t.Fatalf("dispatched %d, want 0", st.Dispatched)
	}
	if g.started {
		t.Fatal("worker pool started although no epoch had two active shards")
	}
}

// When every shard is busy in every epoch the caller runs one shard and hands
// the other K-1 to workers, in either mode (the counters describe the
// schedule, not the goroutines).
func TestShardGroupBusyShardsDispatch(t *testing.T) {
	const k = 4
	for _, mode := range []struct {
		name string
		opts []GroupOption
	}{
		{"parallel", nil},
		{"sequential", []GroupOption{WithSequentialGroup()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			periods := make([]time.Duration, k)
			for i := range periods {
				periods[i] = time.Millisecond
			}
			g := periodicGroup(t, periods, 30*time.Millisecond, mode.opts...)
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			st := g.Stats()
			if st.Epochs != 30 || st.InlineEpochs != 0 {
				t.Fatalf("epochs %d, inline %d: want 30 epochs, none inline", st.Epochs, st.InlineEpochs)
			}
			if st.Dispatched != (k-1)*st.Epochs {
				t.Fatalf("dispatched %d, want %d", st.Dispatched, (k-1)*st.Epochs)
			}
			if st.TotalEvents != k*30 || st.Parallelism() != k {
				t.Fatalf("total %d parallelism %v, want %d and %d", st.TotalEvents, st.Parallelism(), k*30, k)
			}
		})
	}
}

// mixedPeriods give a schedule with both inline epochs (only shard 0 busy)
// and dispatched ones of every width.
var mixedPeriods = []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}

// The whole profile, the new counters included, resumes across Fork and
// Snapshot/NewGroup: a run interrupted at a barrier and finished by a copy
// reports exactly the stats of an uninterrupted run.
func TestShardStatsResumeAcrossFork(t *testing.T) {
	const until, mid = 60 * time.Millisecond, 23 * time.Millisecond
	ref := periodicGroup(t, mixedPeriods, until)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Stats()
	if want.InlineEpochs == 0 || want.Dispatched == 0 {
		t.Fatalf("schedule exercises only one path: %+v", want)
	}

	p := periodicGroup(t, mixedPeriods, until)
	if err := p.RunUntil(mid); err != nil {
		t.Fatal(err)
	}
	fork, err := p.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fork.Close)
	restored, err := p.Snapshot().NewGroup(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	for name, g := range map[string]*ShardGroup{"parent": p, "fork": fork, "snapshot": restored} {
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		if got := g.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s stats %+v, want %+v", name, got, want)
		}
	}
}

// waitParked waits until every worker of g has outrun its spin budget and
// parked on its wake channel.
func waitParked(t *testing.T, g *ShardGroup) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range g.workers[1:] {
		for !w.start.sleeping.Load() {
			if time.Now().After(deadline) {
				t.Fatal("worker never parked")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Fork, run and Close cycles leave no goroutine behind, including a cycle
// whose workers parked — between two runs and again before Close.
func TestShardGroupCloseJoinsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	parent := periodicGroup(t, mixedPeriods, 40*time.Millisecond)
	if err := parent.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f, err := parent.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := f.RunUntil(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			waitParked(t, f) // the next dispatch must wake them
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitParked(t, f) // Close must wake them
		}
		f.Close()
	}
	parent.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// With one processor the spinning handoff must still let the goroutine it
// waits for run; the result equals the sequential mode's.
func TestShardGroupGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := periodicGroup(t, mixedPeriods, 40*time.Millisecond)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	ref := periodicGroup(t, mixedPeriods, 40*time.Millisecond, WithSequentialGroup())
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
