package bgp

import (
	"testing"
	"time"

	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
)

// These tests pin the engine's allocation-free hot path: once a network has
// converged (slabs warmed, paths interned, RIB columns grown), the decision
// process and the full send→deliver→receive pipeline must not allocate. CI
// runs them on every push; a regression here means a change reintroduced
// per-event garbage (closures, path copies, map churn) and should be fixed,
// not accommodated.

const allocPrefix = Prefix("alloc/8")

// newConvergedNetwork builds a 3x3 torus, originates one prefix from the
// center router and drains to convergence.
func newConvergedNetwork(t testing.TB, damp *damping.Params) (*sim.Kernel, *Network) {
	t.Helper()
	g, err := topology.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Damping = damp
	k := sim.NewKernel(sim.WithSeed(7))
	n, err := NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Router(4).Originate(allocPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k, n
}

func TestDecideDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		damp *damping.Params
	}{
		{"plain", nil},
		{"damped", func() *damping.Params { p := damping.Cisco(); return &p }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, n := newConvergedNetwork(t, tc.damp)
			r := n.Router(0)
			pid, ok := n.lookupPrefix(allocPrefix)
			if !ok {
				t.Fatal("prefix not interned after convergence")
			}
			if l := r.localAt(pid); !l.hasRoute {
				t.Fatal("router 0 has no route after convergence")
			}
			allocs := testing.AllocsPerRun(1000, func() {
				_ = r.decide(pid)
			})
			if allocs != 0 {
				t.Errorf("decision process allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

func TestSendPathDoesNotAllocate(t *testing.T) {
	k, n := newConvergedNetwork(t, nil)
	r := n.Router(0)
	peer := r.peers[0]
	e := func() *ribInEntry {
		pid, ok := n.lookupPrefix(allocPrefix)
		if !ok {
			t.Fatal("prefix not interned after convergence")
		}
		return r.ribInAt(r.slotOf(peer), pid)
	}()
	if e == nil || e.path == nil {
		t.Fatal("router 0 holds no RIB-IN route from its first peer")
	}
	// Re-delivering the exact advertised route is a pure duplicate: the
	// receiver runs the whole update pipeline (damping classify, RIB-IN
	// store, decision process) and changes nothing. This exercises send,
	// the FIFO/generation bookkeeping, the pooled message slab, the typed
	// deliver event and receive.
	msg := Message{From: peer, To: r.id, Prefix: allocPrefix, Path: e.path}
	for i := 0; i < 32; i++ { // warm the message slab and event-queue slab
		n.send(msg)
		for k.Step() {
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		n.send(msg)
		for k.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("send→deliver→receive path allocates %.1f per run, want 0", allocs)
	}
}

// TestFlapSteadyStateDoesNotAllocate drives full (withdraw, re-announce)
// pulses through a converged damped network. After the first pulses have
// interned every path the episode explores and sized every slab, subsequent
// identical pulses — the workload the experiments repeat for hours of
// virtual time — must run without a single allocation.
//
// The network uses fixed processing delays and no MRAI jitter so every pulse
// replays the same event sequence; with jittered timing the exploration
// order drifts between pulses and the intern table keeps absorbing rare new
// path combinations (amortized zero, but not the exact zero a regression
// test needs).
func TestFlapSteadyStateDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		adjust func(*Config)
	}{
		{"exact", func(*Config) {}},
		// The wheel leg pins the whole timer-wheel path — quantized decay,
		// reuse-list enrollment, the batch sweep timer, reuse lifts — as
		// allocation-free too. A small ring lets the warm-up pulses touch
		// (and size) every reuse list; under the default 722-list ring each
		// pulse would enroll into cold buckets and their one-time append
		// growth would read as steady-state allocation.
		{"wheel", func(cfg *Config) {
			cfg.DampingEngine = damping.EngineWheel
			cfg.WheelConfig = damping.WheelConfig{
				DeltaT: time.Second, DeltaTReuse: 5 * time.Second, MaxLists: 8,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := topology.Torus(3, 3)
			if err != nil {
				t.Fatal(err)
			}
			params := damping.Cisco()
			cfg := DefaultConfig()
			cfg.Seed = 7
			cfg.Damping = &params
			cfg.MRAIJitter = false
			cfg.MinProcDelay = 5 * time.Millisecond
			cfg.MaxProcDelay = 5 * time.Millisecond
			tc.adjust(&cfg)
			k := sim.NewKernel(sim.WithSeed(7))
			n, err := NewNetwork(k, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			origin := n.Router(4)
			origin.Originate(allocPrefix)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			pulse := func() {
				origin.StopOriginating(allocPrefix)
				for k.Step() {
				}
				origin.Originate(allocPrefix)
				for k.Step() {
				}
			}
			for i := 0; i < 4; i++ { // explore all alternate paths, warm all slabs
				pulse()
			}
			allocs := testing.AllocsPerRun(20, pulse)
			if allocs != 0 {
				t.Errorf("steady-state flap pulse allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestShardedFlushDoesNotAllocate extends the steady-state pin to the
// two-shard ensemble: once identical flap pulses have warmed every slab and
// outbox, a pulse allocates nothing, although each of its epoch barriers
// drains the outboxes, sorts the cut-edge messages into their canonical
// order and injects them. Workers hand epochs off through counters, so the
// coordinator adds no garbage either.
func TestShardedFlushDoesNotAllocate(t *testing.T) {
	g, err := topology.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := damping.Cisco()
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Damping = &params
	cfg.MRAIJitter = false
	cfg.MinProcDelay = 5 * time.Millisecond
	cfg.MaxProcDelay = 5 * time.Millisecond
	assign, err := topology.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewShardedNetwork(g, cfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	grp := sn.Group()
	origin := sn.Router(4)
	// Drain, then align every shard clock so the next stimulus is sent at
	// one instant on all shards.
	drain := func() {
		if err := grp.Run(); err != nil {
			t.Fatal(err)
		}
		sn.Align()
	}
	origin.Originate(allocPrefix)
	drain()
	pulse := func() {
		origin.StopOriginating(allocPrefix)
		drain()
		origin.Originate(allocPrefix)
		drain()
	}
	for i := 0; i < 4; i++ {
		pulse()
	}
	before := grp.Stats().Injected
	allocs := testing.AllocsPerRun(20, pulse)
	if grp.Stats().Injected == before {
		t.Fatal("no cross-shard traffic: the pulse never exercised Flush")
	}
	if allocs != 0 {
		t.Errorf("steady-state sharded flap pulse allocates %.1f per run, want 0", allocs)
	}
}
