package bgp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"rfd/sim"
	"rfd/topology"
)

// remoteMsg is a cross-shard message parked in the ensemble outbox between
// the send and the next epoch barrier. at is the final arrival time (FIFO
// stamp included) and gen the session generation it was sent on; src/seq give
// the canonical injection order.
type remoteMsg struct {
	at  time.Duration
	msg Message
	gen uint64
	src int32
	seq uint64
}

// ShardedNetwork runs one bgp.Network per shard, each on its own sim.Kernel,
// under a sim.ShardGroup's conservative-lookahead epochs. Every shard is
// constructed from the same topology, config and seed — replaying the full
// construction RNG sequence so each router receives exactly its sequential
// stream — but instantiates only the routers its shard owns. Link and
// session state is replicated per shard and kept in sync by applying every
// fault to every shard at the same virtual time.
//
// The lookahead is MinLinkDelay + MinProcDelay: a message sent at t arrives
// no earlier than t + lookahead, so events inside an epoch [T, T+L) cannot
// produce cross-shard work inside the same epoch. Cross-shard messages
// collect in per-shard outboxes and are injected at the barrier in
// (time, source shard, sequence) order, making runs independent of goroutine
// scheduling and byte-identical to the sequential engine per seed.
//
// One shard is the sequential engine: a lone shard network owns every
// router, sends nothing across shards, and its group drives the kernel
// directly, so it needs no lookahead and keeps no outbox.
type ShardedNetwork struct {
	graph   *topology.Graph
	cfg     Config
	owner   []int32 // nil for one shard
	shards  []*Network
	kernels []*sim.Kernel
	group   *sim.ShardGroup

	outbox   [][]remoteMsg
	seq      []uint64
	flushBuf []remoteMsg
}

// Lookahead returns the conservative cross-shard latency bound for cfg, or
// an error when the config cannot support sharded execution.
func Lookahead(cfg Config) (time.Duration, error) {
	l := cfg.MinLinkDelay + cfg.MinProcDelay
	if l <= 0 {
		return 0, fmt.Errorf("bgp: sharded execution needs MinLinkDelay+MinProcDelay > 0 (lookahead), got %v", l)
	}
	return l, nil
}

// NewShardedNetwork partitions g's routers across shards per assign (node id
// → shard, as produced by topology.Partition) and builds one shard network
// per shard on a fresh kernel. A nil assign, or one naming a single shard,
// builds the one-shard ensemble. Every Option is applied to the group.
func NewShardedNetwork(g *topology.Graph, cfg Config, assign []int32, opts ...sim.GroupOption) (*ShardedNetwork, error) {
	if assign != nil && len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("bgp: partition covers %d nodes, topology has %d", len(assign), g.NumNodes())
	}
	nshards := 1
	for v, s := range assign {
		if s < 0 {
			return nil, fmt.Errorf("bgp: node %d unassigned", v)
		}
		nshards = max(nshards, int(s)+1)
	}
	lookahead, err := Lookahead(cfg)
	switch {
	case nshards == 1:
		// The lone kernel exchanges nothing and its group never reads the
		// bound; any positive value satisfies the group's constructor.
		assign, lookahead = nil, max(lookahead, time.Nanosecond)
	case err != nil:
		return nil, err
	}
	sn := &ShardedNetwork{
		graph:   g,
		cfg:     cfg,
		owner:   assign,
		shards:  make([]*Network, nshards),
		kernels: make([]*sim.Kernel, nshards),
	}
	for s := 0; s < nshards; s++ {
		k := sim.NewKernel(sim.WithSeed(cfg.Seed))
		n, err := newNetwork(k, g, cfg, assign, int32(s))
		if err != nil {
			return nil, err
		}
		sn.kernels[s] = k
		sn.shards[s] = n
	}
	sn.bind(nil)
	group, err := sim.NewShardGroup(lookahead, sn.kernels, sn, opts...)
	if err != nil {
		return nil, err
	}
	sn.group = group
	return sn, nil
}

// bind gives a multi-shard ensemble its outboxes, resuming the per-shard
// send sequences at from (nil: zero), and points every shard network's
// remote-send callback at them (used at construction and again after Fork).
// A lone shard sends nothing remotely and needs neither.
func (sn *ShardedNetwork) bind(from []uint64) {
	if len(sn.shards) == 1 {
		return
	}
	sn.seq = make([]uint64, len(sn.shards))
	copy(sn.seq, from)
	sn.outbox = make([][]remoteMsg, len(sn.shards))
	for s, n := range sn.shards {
		s := int32(s)
		n.remoteSend = func(at time.Duration, msg Message, gen uint64) {
			sn.seq[s]++
			sn.outbox[s] = append(sn.outbox[s], remoteMsg{at: at, msg: msg, gen: gen, src: s, seq: sn.seq[s]})
		}
	}
}

// Flush implements sim.Exchanger: drain every outbox and inject the messages
// into their owners' kernels in (time, source shard, sequence) order. Called
// by the group with every shard parked.
func (sn *ShardedNetwork) Flush() int {
	total := 0
	for _, box := range sn.outbox {
		total += len(box)
	}
	if total == 0 {
		return 0
	}
	buf := sn.flushBuf[:0]
	for s, box := range sn.outbox {
		buf = append(buf, box...)
		sn.outbox[s] = box[:0]
	}
	slices.SortFunc(buf, func(a, b remoteMsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, m := range buf {
		sn.shards[sn.owner[m.msg.To]].injectDelivery(m.at, m.msg, m.gen)
	}
	sn.flushBuf = buf[:0]
	return total
}

// Group returns the coordinator driving the shards. Use it to run the
// ensemble (Run/RunUntil/…) and to read epoch statistics.
func (sn *ShardedNetwork) Group() *sim.ShardGroup { return sn.group }

// Close stops the group's worker goroutines.
func (sn *ShardedNetwork) Close() { sn.group.Close() }

// NumShards returns the shard count.
func (sn *ShardedNetwork) NumShards() int { return len(sn.shards) }

// Shard returns shard s's network (its routers, hooks, counters).
func (sn *ShardedNetwork) Shard(s int) *Network { return sn.shards[s] }

// Owner returns the shard owning router id.
func (sn *ShardedNetwork) Owner(id RouterID) int32 {
	if sn.owner == nil {
		return 0
	}
	return sn.owner[id]
}

// Router returns the live instance of router id (from its owning shard).
func (sn *ShardedNetwork) Router(id RouterID) *Router {
	if id < 0 || int(id) >= sn.graph.NumNodes() {
		return nil
	}
	return sn.shards[sn.Owner(id)].Router(id)
}

// Now returns the ensemble's virtual clock (max across shards).
func (sn *ShardedNetwork) Now() time.Duration { return sn.group.Now() }

// Align advances every shard's clock to the ensemble clock. After a full
// drain the shards' clocks sit at their last *local* events while the
// sequential engine's clock sits at the *global* last event; stimuli applied
// without aligning would be scheduled relative to different "now"s than the
// sequential engine uses, breaking trace equivalence. RunUntil aligns
// implicitly; call Align after Run (drain) before touching routers directly.
// The ensemble's own mutation entry points call it themselves.
func (sn *ShardedNetwork) Align() { sn.group.AdvanceTo(sn.group.Now()) }

// Quiescent reports whether no deliveries are pending on any shard and no
// cross-shard message waits in an outbox.
func (sn *ShardedNetwork) Quiescent() bool {
	for _, n := range sn.shards {
		if !n.Quiescent() {
			return false
		}
	}
	for _, box := range sn.outbox {
		if len(box) > 0 {
			return false
		}
	}
	return true
}

// PendingDeliveries sums in-flight messages across shards and outboxes.
func (sn *ShardedNetwork) PendingDeliveries() int {
	total := 0
	for _, n := range sn.shards {
		total += n.PendingDeliveries()
	}
	for _, box := range sn.outbox {
		total += len(box)
	}
	return total
}

// Delivered sums delivered-message counters across shards.
func (sn *ShardedNetwork) Delivered() uint64 {
	var total uint64
	for _, n := range sn.shards {
		total += n.Delivered()
	}
	return total
}

// Dropped sums dropped-message counters across shards.
func (sn *ShardedNetwork) Dropped() uint64 {
	var total uint64
	for _, n := range sn.shards {
		total += n.Dropped()
	}
	return total
}

// LastDelivery returns the latest delivery instant across shards.
func (sn *ShardedNetwork) LastDelivery() time.Duration {
	var max time.Duration
	for _, n := range sn.shards {
		if n.LastDelivery() > max {
			max = n.LastDelivery()
		}
	}
	return max
}

// ResetCounters zeroes every shard's counters.
func (sn *ShardedNetwork) ResetCounters() {
	for _, n := range sn.shards {
		n.ResetCounters()
	}
}

// ResetDamping clears damping state on every shard.
func (sn *ShardedNetwork) ResetDamping() {
	for _, n := range sn.shards {
		n.ResetDamping()
	}
}

// DampedLinkCount sums suppressed damping states across shards.
func (sn *ShardedNetwork) DampedLinkCount() int {
	total := 0
	for _, n := range sn.shards {
		total += n.DampedLinkCount()
	}
	return total
}

// SetLinkState applies the link fault to every shard's replicated state —
// each shard bumps its session generation and its owned endpoints react —
// keeping the replicas in lockstep. Call only between runs (at a barrier).
func (sn *ShardedNetwork) SetLinkState(a, b RouterID, up bool) error {
	sn.Align()
	for _, n := range sn.shards {
		if err := n.SetLinkState(a, b, up); err != nil {
			return err
		}
	}
	return nil
}

// ResetSession applies a session reset to every shard's replicated state.
func (sn *ShardedNetwork) ResetSession(a, b RouterID) error {
	sn.Align()
	for _, n := range sn.shards {
		if err := n.ResetSession(a, b); err != nil {
			return err
		}
	}
	return nil
}

// CrashRouter applies a router crash to every shard's replicated state.
func (sn *ShardedNetwork) CrashRouter(id RouterID) error {
	sn.Align()
	for _, n := range sn.shards {
		if err := n.CrashRouter(id); err != nil {
			return err
		}
	}
	return nil
}

// RestartRouter applies a router restart to every shard's replicated state.
func (sn *ShardedNetwork) RestartRouter(id RouterID) error {
	sn.Align()
	for _, n := range sn.shards {
		if err := n.RestartRouter(id); err != nil {
			return err
		}
	}
	return nil
}

// CheckConsistency runs the sequential engine's quiescent-state invariants
// across the whole ensemble, pairing cross-shard sessions through their
// owners' views. Replica agreement (session generations, link state) is
// checked first: a divergence there means the fault replication broke.
func (sn *ShardedNetwork) CheckConsistency() error {
	if !sn.Quiescent() {
		return fmt.Errorf("bgp: consistency check on a non-quiescent ensemble (%d deliveries in flight)", sn.PendingDeliveries())
	}
	ref := sn.shards[0]
	for s := 1; s < len(sn.shards); s++ {
		n := sn.shards[s]
		for e := range ref.sessionGen {
			if n.sessionGen[e] != ref.sessionGen[e] || n.downLinks[e] != ref.downLinks[e] {
				return fmt.Errorf("bgp: shard %d link-state replica diverged from shard 0 at edge %d", s, e)
			}
		}
		for id := range ref.downRouters {
			if n.downRouters[id] != ref.downRouters[id] {
				return fmt.Errorf("bgp: shard %d router-state replica diverged from shard 0 at router %d", s, id)
			}
		}
	}
	// Intra-shard invariants (incl. Local-RIB re-decision) per shard.
	for _, n := range sn.shards {
		if err := n.CheckConsistency(); err != nil {
			return err
		}
	}
	// Cross-shard sessions: what each owner believes it advertised must be
	// what the peer's owner holds.
	for id := range sn.owner {
		r := sn.Router(RouterID(id))
		if r == nil || sn.shards[sn.owner[id]].downRouters[id] {
			continue
		}
		n := sn.shards[sn.owner[id]]
		for s, q := range r.peers {
			if sn.owner[q] == sn.owner[id] {
				continue // checked intra-shard
			}
			if !n.SessionUp(r.id, q) {
				continue
			}
			peer := sn.Router(q)
			backSlot := peer.slotOf(r.id)
			for _, prefix := range r.ribOutPrefixes(int32(s)) {
				pid, ok := n.lookupPrefix(prefix)
				var sent, held Path
				if ok {
					if out := r.ribOutAt(int32(s), pid); out != nil {
						sent = out.advertised
					}
				}
				peerNet := sn.shards[sn.owner[q]]
				if ppid, pok := peerNet.lookupPrefix(prefix); pok {
					if in := peer.ribInAt(backSlot, ppid); in != nil {
						held = in.path
					}
				}
				if !sent.Equal(held) {
					return fmt.Errorf(
						"bgp: cross-shard session %d->%d prefix %s: RIB-OUT [%s] != peer RIB-IN [%s]",
						r.id, q, prefix, sent, held)
				}
			}
		}
	}
	return nil
}

// Fork returns an independent copy of the ensemble, leaving the original
// untouched. The ensemble must be quiescent at a barrier with empty
// outboxes — fork at the same instants you would snapshot the sequential
// engine (experiment checkpoints are taken at quiescent epochs). The kernel
// group is forked as a unit (sim.ShardGroup.Fork), so the copy's coordinator
// resumes with the parent's epoch statistics, exactly as a from-scratch run
// would report; each shard network is then forked onto its pre-forked kernel
// and rebound to the copy's outboxes. Safe for concurrent Fork calls on the
// same parked ensemble — forking only reads.
func (sn *ShardedNetwork) Fork() (*ShardedNetwork, error) {
	for _, box := range sn.outbox {
		if len(box) > 0 {
			return nil, fmt.Errorf("bgp: fork with %d cross-shard messages in outboxes; run to a barrier first", sn.PendingDeliveries())
		}
	}
	f := &ShardedNetwork{
		graph:  sn.graph,
		cfg:    sn.cfg,
		owner:  sn.owner,
		shards: make([]*Network, len(sn.shards)),
	}
	group, err := sn.group.Fork(f)
	if err != nil {
		return nil, err
	}
	f.group = group
	f.kernels = append([]*sim.Kernel(nil), group.Kernels()...)
	for s, n := range sn.shards {
		fn, err := n.forkOnto(f.kernels[s])
		if err != nil {
			return nil, err
		}
		f.shards[s] = fn
	}
	f.bind(sn.seq)
	return f, nil
}

// ShardedSnapshot is an immutable checkpoint of a sharded ensemble, taken
// with ShardedNetwork.Snapshot. Like the sequential bgp.Snapshot it holds a
// private fork that is never run; Fork stamps out any number of independent,
// runnable copies. Safe for concurrent Fork calls from multiple goroutines —
// sweep workers each fork their own copy — because forking only reads the
// parked state (the parked group's worker pool is never started).
type ShardedSnapshot struct {
	parked *ShardedNetwork
}

// Snapshot captures the ensemble at the current barrier. The same
// preconditions as Fork apply (quiescent at a barrier, empty outboxes); the
// ensemble is unaffected and may continue running.
func (sn *ShardedNetwork) Snapshot() (*ShardedSnapshot, error) {
	parked, err := sn.Fork()
	if err != nil {
		return nil, err
	}
	return &ShardedSnapshot{parked: parked}, nil
}

// Now returns the virtual time the snapshot was taken at.
func (s *ShardedSnapshot) Now() time.Duration { return s.parked.Now() }

// NumShards returns the shard count captured in the snapshot.
func (s *ShardedSnapshot) NumShards() int { return s.parked.NumShards() }

// Fork materializes an independent runnable ensemble from the checkpoint.
// Every copy starts from the identical state; given identical subsequent
// stimuli they produce identical event sequences. No hooks are installed.
func (s *ShardedSnapshot) Fork() (*ShardedNetwork, error) {
	return s.parked.Fork()
}
