// Sharded parallel event execution: a ShardGroup runs K kernels in lockstep
// epochs under conservative lookahead.
//
// The scheme is classic conservative parallel discrete-event simulation
// (Chandy–Misra–Bryant specialized to a barrier/epoch form). Every event is
// owned by exactly one shard; the only cross-shard interaction is message
// injection, and the model guarantees a minimum latency L (the lookahead)
// between the instant a cross-shard message is produced and the instant it
// must execute at its destination. Under that guarantee the group can run all
// shards independently over the epoch [T, T+L), where T is the earliest
// pending instant anywhere: no event executed in the epoch can cause another
// shard's event inside the same epoch. At the barrier the coordinator drains
// every shard's outbox, injects the collected events in a deterministic
// global order (time, source shard, source sequence), and opens the next
// epoch at the new earliest instant.
//
// Determinism: within an epoch a shard is an ordinary sequential kernel, and
// the barrier exchange is single-threaded with a total order on injected
// events, so a run is a pure function of the initial schedules, the seeds and
// the exchange contents — independent of goroutine scheduling. The worker
// goroutines exist only to overlap wall-clock work; disabling them
// (Sequential mode) produces byte-identical results.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Exchanger moves cross-shard traffic at an epoch barrier. Implementations
// (bgp.ShardedNetwork) collect outbound events into per-shard outboxes while
// shards run, and inject them into the destination kernels when the
// coordinator calls Flush — which happens with every shard parked, so Flush
// may touch any kernel. Flush must inject in a deterministic order, must
// leave every outbox empty (the coordinator picks the next epoch start from
// the kernel queues alone), and returns the number of events moved.
type Exchanger interface {
	Flush() int
}

// NopExchanger is the Exchanger for shard sets with no cross-shard edges
// (K=1 groups, or fully partitioned workloads in tests).
type NopExchanger struct{}

// Flush implements Exchanger.
func (NopExchanger) Flush() int { return 0 }

// ShardStats accumulates the group's execution profile. CriticalPathEvents
// sums, over epochs, the largest per-shard event count of that epoch — the
// number of sequential event slots an ideally parallel execution of this
// partition cannot go below. TotalEvents / CriticalPathEvents is therefore
// the partition's achievable parallelism on this workload, independent of the
// host's core count (the recorded benchmarks report it next to wall clock,
// which on a small host is bounded by GOMAXPROCS instead).
//
// Every field is a pure function of the workload and the partition: none
// depends on goroutine scheduling or on WithSequentialGroup.
type ShardStats struct {
	// Epochs is the number of barrier-to-barrier rounds executed.
	Epochs uint64
	// TotalEvents is the sum of events executed across all shards.
	TotalEvents uint64
	// CriticalPathEvents is the sum over epochs of the per-epoch maximum
	// shard event count.
	CriticalPathEvents uint64
	// Injected is the number of cross-shard events moved at barriers.
	Injected uint64
	// InlineEpochs counts the epochs in which at most one shard had an
	// event before the horizon; the coordinator runs those on the calling
	// goroutine with no handoff.
	InlineEpochs uint64
	// Dispatched counts worker handoffs: in an epoch where several shards
	// have work, the caller runs the first and hands each other one to its
	// worker. (Under WithSequentialGroup the caller runs those too, and they
	// are still counted here.)
	Dispatched uint64
	// EventsPerShard is the per-shard executed-event breakdown.
	EventsPerShard []uint64
}

// Parallelism returns TotalEvents / CriticalPathEvents (1 when no events ran).
func (s ShardStats) Parallelism() float64 {
	if s.CriticalPathEvents == 0 {
		return 1
	}
	return float64(s.TotalEvents) / float64(s.CriticalPathEvents)
}

// ShardGroup coordinates K kernels under conservative lookahead. Construct
// with NewShardGroup; a group must not be shared between goroutines, and the
// kernels must not be driven directly (Run/Step) while the group owns them.
//
// A one-kernel group pays no coordinator: Run and RunUntil drive the kernel
// directly, with no worker goroutine, no epochs and no exchange, so it never
// reads the lookahead and records no epoch statistics.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead time.Duration
	exchange  Exchanger

	// Sequential, when true, runs every epoch on the calling goroutine in
	// shard order instead of fanning out to workers. Results are identical;
	// the mode exists for debugging and for measuring coordination overhead.
	sequential bool

	stats ShardStats

	// Barrier scratch: each shard's next event time (idle when its queue is
	// empty), the shards with work in the current epoch, and each shard's
	// executed count at the last barrier.
	next      []time.Duration
	active    []int
	prevEpoch []uint64

	// Worker pool: workers[s] runs shard s whenever it has work but is not
	// the epoch's first active shard, so shard 0 never needs one. Workers
	// persist across epochs and hand off through counters (see handoff).
	workers []*shardWorker
	joined  sync.WaitGroup
	started bool
	closed  bool
}

// idle is the next-event time of a shard with an empty queue: later than any
// horizon, so the shard never counts as active.
const idle = time.Duration(math.MaxInt64)

// GroupOption configures a ShardGroup.
type GroupOption func(*ShardGroup)

// WithSequentialGroup makes the group run shards on the calling goroutine, in
// shard order, instead of on worker goroutines. Byte-identical results —
// useful for debugging and overhead measurement.
func WithSequentialGroup() GroupOption {
	return func(g *ShardGroup) { g.sequential = true }
}

// NewShardGroup builds a coordinator over the given kernels. The lookahead
// must be positive: it is the guaranteed minimum latency of any cross-shard
// event (for the BGP engine, the minimum cut-edge link delay plus the minimum
// sender processing delay). The exchanger moves cross-shard traffic at
// barriers; use NopExchanger when there is none.
func NewShardGroup(lookahead time.Duration, kernels []*Kernel, ex Exchanger, opts ...GroupOption) (*ShardGroup, error) {
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: sharded execution requires positive lookahead, got %v", lookahead)
	}
	if len(kernels) == 0 {
		return nil, errors.New("sim: shard group needs at least one kernel")
	}
	if ex == nil {
		ex = NopExchanger{}
	}
	g := &ShardGroup{
		kernels:   kernels,
		lookahead: lookahead,
		exchange:  ex,
		next:      make([]time.Duration, len(kernels)),
		active:    make([]int, 0, len(kernels)),
		prevEpoch: make([]uint64, len(kernels)),
	}
	g.stats.EventsPerShard = make([]uint64, len(kernels))
	for i, k := range kernels {
		g.prevEpoch[i] = k.Executed()
	}
	for _, opt := range opts {
		opt(g)
	}
	return g, nil
}

// Kernels returns the group's kernels (shard order). Do not drive them while
// the group is running.
func (g *ShardGroup) Kernels() []*Kernel { return g.kernels }

// Stats returns the execution profile accumulated so far.
func (g *ShardGroup) Stats() ShardStats {
	s := g.stats
	s.EventsPerShard = append([]uint64(nil), g.stats.EventsPerShard...)
	return s
}

// Now returns the maximum kernel clock across shards — after RunUntil every
// clock equals the horizon; after a drain it is the time of the globally last
// fired event, matching what a sequential kernel's Now would report.
func (g *ShardGroup) Now() time.Duration {
	var max time.Duration
	for _, k := range g.kernels {
		if k.Now() > max {
			max = k.Now()
		}
	}
	return max
}

// AdvanceTo aligns every shard's clock at the barrier instant at. Call only
// when the group is parked (between Run/RunUntil calls) and no shard has a
// pending event before at.
func (g *ShardGroup) AdvanceTo(at time.Duration) {
	for _, k := range g.kernels {
		if k.Now() < at {
			k.AdvanceTo(at)
		}
	}
}

// Pending returns the total number of events pending across shards (outbox
// contents not included).
func (g *ShardGroup) Pending() int {
	total := 0
	for _, k := range g.kernels {
		total += k.Pending()
	}
	return total
}

// A handoff spins this many times on its counter before parking, yielding the
// processor every handoffYield spins so that with GOMAXPROCS=1 the goroutine
// being waited for still gets to run. An epoch of the 2000-node benchmark
// scenario takes a few microseconds; the budget, most of it spent in the
// yields, lets an idle worker ride out the runs of inline epochs between two
// dispatches without parking, and parks it soon after a Run returns.
const (
	handoffSpins = 1 << 15
	handoffYield = 32
)

// handoff is a one-way, park-free signal between one signaller and one
// waiter: a counter the waiter spins on, with a 1-buffered wake channel to
// park on once the spin budget runs out. The waiter sets sleeping before its
// last look at the counter and the signaller bumps the counter before looking
// at sleeping (Dekker order over sequentially consistent atomics), so a
// parked waiter is always woken. A wake token left over from a race is
// harmless: the waiter re-checks the counter after every wake-up.
type handoff struct {
	n        atomic.Uint64
	sleeping atomic.Bool
	wake     chan struct{}
}

// signal bumps the counter and wakes the waiter if it parked.
func (h *handoff) signal() {
	h.n.Add(1)
	if h.sleeping.Load() {
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// await returns once the counter has reached want.
func (h *handoff) await(want uint64) {
	for i := 1; i <= handoffSpins; i++ {
		if h.n.Load() >= want {
			return
		}
		if i%handoffYield == 0 {
			runtime.Gosched()
		}
	}
	for {
		h.sleeping.Store(true)
		if h.n.Load() >= want {
			h.sleeping.Store(false)
			return
		}
		<-h.wake
	}
}

// shardWorker runs one shard's epochs on its own goroutine. The coordinator
// writes horizon (or quit) before signalling start; the worker writes err
// before signalling done, so each side reads the other's fields only after
// the counter that publishes them.
type shardWorker struct {
	start   handoff
	done    handoff
	horizon time.Duration
	quit    bool
	err     error
}

// loop serves epochs for kernel k until Close.
func (w *shardWorker) loop(k *Kernel) {
	for epoch := uint64(1); ; epoch++ {
		w.start.await(epoch)
		if w.quit {
			return
		}
		w.err = k.RunBefore(w.horizon)
		w.done.signal()
	}
}

// startWorkers spins up the pool: one worker per shard after the first.
func (g *ShardGroup) startWorkers() {
	g.started = true
	g.workers = make([]*shardWorker, len(g.kernels))
	for s := 1; s < len(g.kernels); s++ {
		w := &shardWorker{}
		w.start.wake = make(chan struct{}, 1)
		w.done.wake = make(chan struct{}, 1)
		g.workers[s] = w
		g.joined.Add(1)
		go func(k *Kernel) {
			defer g.joined.Done()
			w.loop(k)
		}(g.kernels[s])
	}
}

// Close stops the worker goroutines, waking any that parked. The group is
// unusable afterwards; the kernels remain valid and may be driven directly
// again. Safe to call twice.
func (g *ShardGroup) Close() {
	if !g.started || g.closed {
		g.closed = true
		return
	}
	g.closed = true
	for _, w := range g.workers[1:] {
		w.quit = true
		w.start.signal()
	}
	g.joined.Wait()
}

// nextEpochStart is the one walk over the kernels at a barrier: it records
// every shard's next event time and returns the earliest, or ok=false when
// every queue is empty. The exchanger has already flushed, so no outbox
// holds an earlier event.
func (g *ShardGroup) nextEpochStart() (time.Duration, bool) {
	start := idle
	for i, k := range g.kernels {
		at, has := k.NextEventTime()
		if !has {
			at = idle
		}
		g.next[i] = at
		start = min(start, at)
	}
	return start, start != idle
}

// runEpoch executes one epoch with the given exclusive horizon, then accounts
// stats. Only shards with an event before the horizon run: with at most one,
// the caller runs it inline; otherwise the caller runs the first and hands
// the rest to their workers. A shard without work would fire nothing and
// leave its clock alone, so skipping it changes no state. It returns the
// first error in shard order.
func (g *ShardGroup) runEpoch(horizon time.Duration) error {
	active := g.active[:0]
	for s, at := range g.next {
		if at < horizon {
			active = append(active, s)
		}
	}
	g.active = active

	var err error
	switch {
	case len(active) <= 1 || g.sequential || g.closed:
		for _, s := range active {
			if e := g.kernels[s].RunBefore(horizon); e != nil && err == nil {
				err = e
			}
		}
	default:
		if !g.started {
			g.startWorkers()
		}
		for _, s := range active[1:] {
			w := g.workers[s]
			w.horizon = horizon
			w.start.signal()
		}
		err = g.kernels[active[0]].RunBefore(horizon)
		for _, s := range active[1:] {
			w := g.workers[s]
			w.done.await(w.start.n.Load())
			if w.err != nil && err == nil {
				err = w.err
			}
		}
	}

	g.stats.Epochs++
	if len(active) <= 1 {
		g.stats.InlineEpochs++
	} else {
		g.stats.Dispatched += uint64(len(active) - 1)
	}
	var epochMax uint64
	for _, s := range active {
		executed := g.kernels[s].Executed()
		n := executed - g.prevEpoch[s]
		g.prevEpoch[s] = executed
		g.stats.EventsPerShard[s] += n
		g.stats.TotalEvents += n
		epochMax = max(epochMax, n)
	}
	g.stats.CriticalPathEvents += epochMax
	return err
}

// Run drains every shard: epochs advance until no kernel has a pending event
// and no outbox holds one. Clocks are left at each shard's last fired event.
func (g *ShardGroup) Run() error {
	return g.RunContext(context.Background())
}

// RunContext is Run with a cooperative stop check at every epoch barrier.
func (g *ShardGroup) RunContext(ctx context.Context) error {
	if len(g.kernels) == 1 {
		return g.kernels[0].RunContext(ctx)
	}
	for {
		g.stats.Injected += uint64(g.exchange.Flush())
		start, ok := g.nextEpochStart()
		if !ok {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w at %v: %w", ErrInterrupted, g.Now(), context.Cause(ctx))
		}
		if err := g.runEpoch(start + g.lookahead); err != nil {
			return err
		}
	}
}

// RunUntil fires every event with time <= horizon (leaving later events
// pending) and advances every shard clock to exactly horizon, matching
// Kernel.RunUntil's inclusive boundary. Events at exactly the horizon instant
// are executed only after every cross-shard message that can arrive at or
// before it has been exchanged, so the inclusive boundary is safe.
func (g *ShardGroup) RunUntil(horizon time.Duration) error {
	return g.RunUntilContext(context.Background(), horizon)
}

// RunUntilContext is RunUntil with a cooperative stop check at every barrier.
func (g *ShardGroup) RunUntilContext(ctx context.Context, horizon time.Duration) error {
	if len(g.kernels) == 1 {
		return g.kernels[0].RunUntilContext(ctx, horizon)
	}
	for {
		g.stats.Injected += uint64(g.exchange.Flush())
		start, ok := g.nextEpochStart()
		if !ok || start > horizon {
			break
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w at %v: %w", ErrInterrupted, g.Now(), context.Cause(ctx))
		}
		// Clamp the epoch to the inclusive horizon: RunBefore's exclusive
		// bound means horizon+1ns executes events at exactly the horizon.
		// The clamp can only shorten the epoch, which is always conservative.
		end := start + g.lookahead
		if end > horizon+time.Nanosecond {
			end = horizon + time.Nanosecond
		}
		if err := g.runEpoch(end); err != nil {
			return err
		}
	}
	g.AdvanceTo(horizon)
	return nil
}
