package sim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// tickL is the tick world's hop latency and lookahead: arrivals land exactly
// on epoch boundaries, the hardest legal case for the barrier.
const tickL = 7 * time.Millisecond

// tickWorld is a fork-friendly two-shard ping-pong. Unlike pingPong it is
// built entirely from typed handler events — closures cannot survive
// RemapHandlers — and its exchanger injects via AtHandler, so a forked world
// rebinds every pending event onto its own shards.
type tickWorld struct {
	kernels []*Kernel
	ex      *handlerExchanger
	shards  []*tickShard
	g       *ShardGroup
	log     []string
}

type tickShard struct {
	w  *tickWorld
	id int
}

func (s *tickShard) HandleEvent(arg uint64) {
	k := s.w.kernels[s.id]
	s.w.log = append(s.w.log, fmt.Sprintf("s%d@%v hops=%d", s.id, k.Now(), arg))
	if arg == 0 {
		return
	}
	s.w.ex.send(k.Now()+tickL, 1-s.id, arg-1)
}

type hmsg struct {
	at    time.Duration
	shard int
	arg   uint64
}

// handlerExchanger buffers cross-shard messages and injects them as typed
// handler events at the barrier, so a fork's pending injections survive
// RemapHandlers like every other queued event.
type handlerExchanger struct {
	mu      sync.Mutex
	w       *tickWorld
	pending []hmsg
}

func (e *handlerExchanger) send(at time.Duration, shard int, arg uint64) {
	e.mu.Lock()
	e.pending = append(e.pending, hmsg{at, shard, arg})
	e.mu.Unlock()
}

func (e *handlerExchanger) Flush() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.pending)
	for _, m := range e.pending {
		e.w.kernels[m.shard].AtHandler(m.at, "hop", e.w.shards[m.shard], m.arg)
	}
	e.pending = e.pending[:0]
	return n
}

func newTickWorld(t *testing.T, rounds uint64) *tickWorld {
	t.Helper()
	w := &tickWorld{kernels: []*Kernel{NewKernel(), NewKernel()}}
	w.ex = &handlerExchanger{w: w}
	w.shards = []*tickShard{{w: w, id: 0}, {w: w, id: 1}}
	w.kernels[0].AtHandler(0, "start", w.shards[0], rounds)
	g, err := NewShardGroup(tickL, w.kernels, w.ex)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	w.g = g
	return w
}

// adopt wires a freshly forked (or snapshot-materialized) group into a new
// world: fork-local exchanger with the parent's un-flushed messages copied
// over, and every pending handler event remapped onto the new world's shards.
func adopt(t *testing.T, g *ShardGroup, parent *tickWorld) *tickWorld {
	t.Helper()
	f := &tickWorld{g: g, kernels: g.Kernels()}
	f.ex = g.exchange.(*handlerExchanger)
	f.ex.w = f
	parent.ex.mu.Lock()
	f.ex.pending = append([]hmsg(nil), parent.ex.pending...)
	parent.ex.mu.Unlock()
	f.shards = []*tickShard{{w: f, id: 0}, {w: f, id: 1}}
	for _, k := range f.kernels {
		if err := k.RemapHandlers(func(h Handler) Handler {
			return f.shards[h.(*tickShard).id]
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(g.Close)
	return f
}

func (w *tickWorld) fork(t *testing.T) *tickWorld {
	t.Helper()
	ex := &handlerExchanger{}
	g, err := w.g.Fork(ex)
	if err != nil {
		t.Fatal(err)
	}
	return adopt(t, g, w)
}

func assertTrace(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s fired %d events, want %d:\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s diverged at event %d: %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestShardGroupForkParentUntouched is the group-level fork property: forking
// a parked group mid-run leaves the parent untouched, and parent and fork both
// complete with the trace of an independent uninterrupted run — in either
// completion order.
func TestShardGroupForkParentUntouched(t *testing.T) {
	const rounds = 12
	const mid = 5 * tickL

	ref := newTickWorld(t, rounds)
	if err := ref.g.Run(); err != nil {
		t.Fatal(err)
	}
	full := append([]string(nil), ref.log...)
	if len(full) != rounds+1 {
		t.Fatalf("reference fired %d events, want %d", len(full), rounds+1)
	}
	refStats := ref.g.Stats()

	for _, forkFirst := range []bool{true, false} {
		name := "parent-first"
		if forkFirst {
			name = "fork-first"
		}
		t.Run(name, func(t *testing.T) {
			p := newTickWorld(t, rounds)
			if err := p.g.RunUntil(mid); err != nil {
				t.Fatal(err)
			}
			prefix := append([]string(nil), p.log...)
			if len(prefix) == 0 || len(prefix) == len(full) {
				t.Fatalf("fork point is degenerate: %d of %d events fired", len(prefix), len(full))
			}
			f := p.fork(t)
			if f.g.Now() != p.g.Now() {
				t.Fatalf("fork clock %v != parent clock %v", f.g.Now(), p.g.Now())
			}
			if got, want := f.g.Stats().TotalEvents, p.g.Stats().TotalEvents; got != want {
				t.Fatalf("fork stats start at %d events, parent has %d (profile must carry over)", got, want)
			}

			finish := func(w *tickWorld, label string) {
				if err := w.g.Run(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			if forkFirst {
				finish(f, "fork")
				finish(p, "parent")
			} else {
				finish(p, "parent")
				finish(f, "fork")
			}

			assertTrace(t, "parent", p.log, full)
			assertTrace(t, "fork", append(append([]string(nil), prefix...), f.log...), full)
			if got := p.g.Stats().TotalEvents; got != refStats.TotalEvents {
				t.Fatalf("parent total events %d, want %d", got, refStats.TotalEvents)
			}
			if got := f.g.Stats().TotalEvents; got != refStats.TotalEvents {
				t.Fatalf("fork total events %d, want %d (carried prefix + replayed suffix)", got, refStats.TotalEvents)
			}
		})
	}
}

// TestGroupSnapshotNewGroupReplays pins the snapshot half: a GroupSnapshot
// taken at a barrier is immutable — the source group draining afterwards does
// not disturb it — and every group materialized from it replays the identical
// suffix.
func TestGroupSnapshotNewGroupReplays(t *testing.T) {
	const rounds = 10
	const mid = 4 * tickL

	p := newTickWorld(t, rounds)
	if err := p.g.RunUntil(mid); err != nil {
		t.Fatal(err)
	}
	prefixLen := len(p.log)
	snap := p.g.Snapshot()
	if snap.NumShards() != 2 {
		t.Fatalf("snapshot has %d shards, want 2", snap.NumShards())
	}
	for i := 0; i < snap.NumShards(); i++ {
		if snap.Shard(i) == nil {
			t.Fatalf("shard %d snapshot missing", i)
		}
	}
	// Copy the exchanger's in-flight messages before the parent drains them.
	pendingAtSnap := append([]hmsg(nil), p.ex.pending...)

	// Drain the source first: materialized groups must replay from the capture
	// point regardless of what the source did since.
	if err := p.g.Run(); err != nil {
		t.Fatal(err)
	}
	suffix := append([]string(nil), p.log[prefixLen:]...)
	if len(suffix) == 0 {
		t.Fatal("empty suffix: the replay comparison is vacuous")
	}

	for _, name := range []string{"first", "second"} {
		g, err := snap.NewGroup(&handlerExchanger{})
		if err != nil {
			t.Fatal(err)
		}
		// A stand-in parent carrying the in-flight messages as they were at
		// the snapshot instant, so adopt copies them into the new world.
		atSnap := &tickWorld{ex: &handlerExchanger{pending: pendingAtSnap}}
		m := adopt(t, g, atSnap)
		if err := m.g.Run(); err != nil {
			t.Fatal(err)
		}
		assertTrace(t, name+" materialization", m.log, suffix)
	}
}
