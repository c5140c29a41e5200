package sim

import "time"

// Snapshot/fork for sharded execution. A ShardGroup's mutable state is the
// per-shard kernels plus the coordinator bookkeeping (execution stats and the
// per-shard executed counts used to attribute events to epochs); the epoch
// structure itself is derived — the next epoch start is recomputed from the
// kernel queues after every flush, so capturing the kernels at a barrier
// captures the whole schedule. Exchanger contents are the caller's state, not
// the group's: snapshot/fork require empty outboxes (callers such as
// bgp.ShardedNetwork enforce this) and the caller supplies the fork's
// exchanger, already bound to the forked components.

// GroupSnapshot is a checkpoint of a ShardGroup taken at an epoch barrier:
// one kernel Snapshot per shard plus the lookahead bound and the accumulated
// execution stats. It is immutable once taken; NewGroup materializes any
// number of independent groups from it.
type GroupSnapshot struct {
	kernels   []*Snapshot
	lookahead time.Duration
	stats     ShardStats
}

// NumShards returns the shard count captured in the snapshot.
func (s *GroupSnapshot) NumShards() int { return len(s.kernels) }

// Shard returns the kernel snapshot for shard i.
func (s *GroupSnapshot) Shard(i int) *Snapshot { return s.kernels[i] }

// Snapshot captures the group's current state. Call only with the group
// parked (between Run/RunUntil calls, i.e. at a barrier); the group is
// unaffected and may continue running. Worker goroutines are not part of the
// captured state — a group restored from the snapshot spins up its own pool
// lazily on first use.
func (g *ShardGroup) Snapshot() *GroupSnapshot {
	s := &GroupSnapshot{
		kernels:   make([]*Snapshot, len(g.kernels)),
		lookahead: g.lookahead,
		stats:     g.Stats(),
	}
	for i, k := range g.kernels {
		s.kernels[i] = k.Snapshot()
	}
	return s
}

// NewGroup materializes a fresh, independent group from the snapshot, driving
// fresh kernels bound to the caller's exchanger (which must already route to
// the components the new kernels will run — for the BGP engine, the forked
// ensemble's outboxes). Stats resume from the captured values, so a restored
// group reports the same cumulative profile a never-snapshotted run would.
//
// Pending handler events in the new kernels still reference the original
// components until the caller rebinds them with Kernel.RemapHandlers — the
// same contract as Kernel.Fork.
func (s *GroupSnapshot) NewGroup(ex Exchanger, opts ...GroupOption) (*ShardGroup, error) {
	kernels := make([]*Kernel, len(s.kernels))
	for i, ks := range s.kernels {
		kernels[i] = ks.NewKernel()
	}
	return newGroupFrom(s.lookahead, kernels, ex, s.stats, opts...)
}

// Fork returns an independent copy of the group at its current barrier state,
// equivalent to g.Snapshot() followed by NewGroup but with a single copy per
// kernel. The fork shares no mutable state with the original; the caller
// supplies the exchanger and must remap pending handler events per kernel
// (see GroupSnapshot.NewGroup). The original group is untouched and its
// worker pool, if started, keeps running. Safe to call concurrently on the
// same parked receiver — forking only reads.
func (g *ShardGroup) Fork(ex Exchanger, opts ...GroupOption) (*ShardGroup, error) {
	kernels := make([]*Kernel, len(g.kernels))
	for i, k := range g.kernels {
		kernels[i] = k.Fork()
	}
	return newGroupFrom(g.lookahead, kernels, ex, g.Stats(), opts...)
}

// newGroupFrom builds a group over pre-positioned kernels and seeds its stats
// with a captured profile (Stats() already deep-copied EventsPerShard).
func newGroupFrom(lookahead time.Duration, kernels []*Kernel, ex Exchanger, stats ShardStats, opts ...GroupOption) (*ShardGroup, error) {
	g, err := NewShardGroup(lookahead, kernels, ex, opts...)
	if err != nil {
		return nil, err
	}
	g.stats = stats
	if g.stats.EventsPerShard == nil {
		g.stats.EventsPerShard = make([]uint64, len(kernels))
	}
	return g, nil
}
