package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/experiment"
	"rfd/internal/eventq"
	"rfd/sim"
	"rfd/topology"
)

// probeResult is what the layer probe measured: one scenario driven one
// layer below experiment, through sim, bgp and (for Shards > 1) the shard
// coordinator.
type probeResult struct {
	events, delivered             uint64
	pendingMax                    int
	conv                          time.Duration
	penalty, suppress, unsuppress int64
	noisy, silent                 int64
	dlcNs                         []float64 // DampedLinkCount call durations
	scan                          func()    // one DampedLinkCount call, when the run made none
	shard                         sim.ShardStats
	fork                          func() error // forks the converged snapshot once
	streams                       int          // damping states: one per (router, peer)
}

// shardCounts are the hook counters of one shard; hooks fire on that
// shard's worker goroutine only.
type shardCounts struct {
	penalty, suppress, unsuppress, noisy, silent atomic.Int64
	pendingMax                                   int
}

// probe drives sc (Pulses > 0, no faults) through sim.NewKernel,
// bgp.NewNetwork or bgp.NewShardedNetwork, Router.Originate and
// StopOriginating and Kernel.RunContext or ShardGroup.RunContext, the way
// experiment's converge and measure do, with spans around each call under
// parent. Like measure, the sequential engine refreshes the damped-link
// count on every suppression change; the sharded engine does not.
func probe(t *tracer, parent int, sc experiment.Scenario) (*probeResult, error) {
	ctx := context.Background()
	var g *topology.Graph
	var origin bgp.RouterID
	var err error
	t.timed("topology.attach_origin", parent, 0, func() { g, origin, err = attachOrigin(sc) })
	if err != nil {
		return nil, err
	}
	interval := sc.FlapInterval
	if interval == 0 {
		interval = experiment.DefaultFlapInterval
	}
	pr := &probeResult{streams: 2 * g.NumEdges()}
	if sc.Shards > 1 {
		return pr, probeSharded(t, parent, sc, g, origin, interval, pr)
	}

	k := sim.NewKernel(sim.WithSeed(sc.Config.Seed))
	k.SetAfterEvent(func(time.Duration, string) {
		if p := k.Pending(); p > pr.pendingMax {
			pr.pendingMax = p
		}
	})
	var n *bgp.Network
	t.timed("bgp.construct", parent, 0, func() { n, err = bgp.NewNetwork(k, g, sc.Config) })
	if err != nil {
		return nil, err
	}
	run := func(horizon time.Duration) {
		t.timed("sim.run", parent, 0, func() {
			if horizon < 0 {
				err = k.RunContext(ctx)
			} else {
				err = k.RunUntilContext(ctx, horizon)
			}
		})
	}
	t.timed("bgp.originate", parent, 0, func() { n.Router(origin).Originate(experiment.FlapPrefix) })
	if run(-1); err != nil {
		return nil, err
	}
	var snap *bgp.Snapshot
	t.timed("bgp.snapshot", parent, 0, func() {
		n.ResetDamping()
		n.ResetCounters()
		snap, err = n.Snapshot()
	})
	if err != nil {
		return nil, err
	}

	var runID int
	n.SetHooks(bgp.Hooks{
		OnSuppress: func(_ time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, on bool) {
			if on {
				pr.suppress++
			} else {
				pr.unsuppress++
			}
			start := time.Now()
			id := t.begin("bgp.damped_link_count", runID, 0)
			n.DampedLinkCount()
			t.end(id)
			pr.dlcNs = append(pr.dlcNs, float64(time.Since(start).Nanoseconds()))
		},
		OnReuse: func(_ time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, noisy bool) {
			if noisy {
				pr.noisy++
			} else {
				pr.silent++
			}
		},
		OnPenalty: func(time.Duration, bgp.RouterID, bgp.RouterID, bgp.Prefix, float64) { pr.penalty++ },
	})
	// sim.run spans are the parents of the damped-link-count spans.
	runHooked := func(horizon time.Duration) {
		runID = t.begin("sim.run", parent, 0)
		if horizon < 0 {
			err = k.RunContext(ctx)
		} else {
			err = k.RunUntilContext(ctx, horizon)
		}
		t.end(runID)
	}
	var flapEnd time.Duration
	for i := 0; i < sc.Pulses; i++ {
		t.timed("bgp.originate", parent, 0, func() { n.Router(origin).StopOriginating(experiment.FlapPrefix) })
		if runHooked(k.Now() + interval); err != nil {
			return nil, err
		}
		t.timed("bgp.originate", parent, 0, func() { n.Router(origin).Originate(experiment.FlapPrefix) })
		flapEnd = k.Now()
		if i < sc.Pulses-1 {
			if runHooked(k.Now() + interval); err != nil {
				return nil, err
			}
		}
	}
	if runHooked(-1); err != nil {
		return nil, err
	}
	pr.events = k.Executed()
	pr.delivered = n.Delivered()
	if last := n.LastDelivery(); last > flapEnd {
		pr.conv = last - flapEnd
	}
	pr.fork = func() error {
		_, _, err := snap.Fork()
		return err
	}
	return pr, nil
}

// attachOrigin copies the scenario's graph and attaches the flapping
// origin to its ISP, as experiment does.
func attachOrigin(sc experiment.Scenario) (*topology.Graph, bgp.RouterID, error) {
	g := sc.Graph.Clone()
	origin := g.AddNode()
	if err := g.AddEdge(origin, sc.ISP); err != nil {
		return nil, 0, err
	}
	if g.Annotated() {
		if err := g.SetRelationship(origin, sc.ISP, topology.RelProvider); err != nil {
			return nil, 0, err
		}
	}
	return g, origin, nil
}

func probeSharded(t *tracer, parent int, sc experiment.Scenario, g *topology.Graph, origin bgp.RouterID, interval time.Duration, pr *probeResult) error {
	ctx := context.Background()
	var assign []int32
	var err error
	t.timed("topology.partition", parent, 0, func() { assign, err = topology.Partition(g, sc.Shards) })
	if err != nil {
		return err
	}
	var sn *bgp.ShardedNetwork
	t.timed("bgp.construct", parent, 0, func() { sn, err = bgp.NewShardedNetwork(g, sc.Config, assign) })
	if err != nil {
		return err
	}
	defer t.timed("bgp.close", parent, 0, func() { sn.Close() })
	grp := sn.Group()
	counts := make([]*shardCounts, sn.NumShards())
	for s, k := range grp.Kernels() {
		c, k := &shardCounts{}, k
		counts[s] = c
		k.SetAfterEvent(func(time.Duration, string) {
			if p := k.Pending(); p > c.pendingMax {
				c.pendingMax = p
			}
		})
	}
	run := func(horizon time.Duration) {
		t.timed("shard.run", parent, 0, func() {
			if horizon < 0 {
				err = grp.RunContext(ctx)
			} else {
				err = grp.RunUntilContext(ctx, horizon)
			}
		})
	}
	t.timed("bgp.originate", parent, 0, func() { sn.Router(origin).Originate(experiment.FlapPrefix) })
	if run(-1); err != nil {
		return err
	}
	var snap *bgp.ShardedSnapshot
	t.timed("bgp.snapshot", parent, 0, func() {
		sn.Align()
		sn.ResetDamping()
		sn.ResetCounters()
		snap, err = sn.Snapshot()
	})
	if err != nil {
		return err
	}
	for s := 0; s < sn.NumShards(); s++ {
		c := counts[s]
		sn.Shard(s).SetHooks(bgp.Hooks{
			OnSuppress: func(_ time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, on bool) {
				if on {
					c.suppress.Add(1)
				} else {
					c.unsuppress.Add(1)
				}
			},
			OnReuse: func(_ time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, noisy bool) {
				if noisy {
					c.noisy.Add(1)
				} else {
					c.silent.Add(1)
				}
			},
			OnPenalty: func(time.Duration, bgp.RouterID, bgp.RouterID, bgp.Prefix, float64) { c.penalty.Add(1) },
		})
	}
	var flapEnd time.Duration
	for i := 0; i < sc.Pulses; i++ {
		t.timed("bgp.originate", parent, 0, func() { sn.Router(origin).StopOriginating(experiment.FlapPrefix) })
		if run(grp.Now() + interval); err != nil {
			return err
		}
		t.timed("bgp.originate", parent, 0, func() { sn.Router(origin).Originate(experiment.FlapPrefix) })
		flapEnd = grp.Now()
		if i < sc.Pulses-1 {
			if run(grp.Now() + interval); err != nil {
				return err
			}
		}
	}
	if run(-1); err != nil {
		return err
	}
	pr.shard = grp.Stats()
	pr.events = pr.shard.TotalEvents
	pr.delivered = sn.Delivered()
	if last := sn.LastDelivery(); last > flapEnd {
		pr.conv = last - flapEnd
	}
	for _, c := range counts {
		pr.penalty += c.penalty.Load()
		pr.suppress += c.suppress.Load()
		pr.unsuppress += c.unsuppress.Load()
		pr.noisy += c.noisy.Load()
		pr.silent += c.silent.Load()
		pr.pendingMax = max(pr.pendingMax, c.pendingMax)
	}
	// The sharded engine never scans for the damped-link count; time the
	// scan anyway (after the traced section) so the per-call cost is
	// comparable across workloads.
	pr.scan = func() { sn.DampedLinkCount() }
	pr.fork = func() error {
		f, err := snap.Fork()
		if err == nil {
			f.Close()
		}
		return err
	}
	return nil
}

// probeMetrics copies a probe's measurements into the per-layer metrics and
// its deterministic counts into the exact gate.
func probeMetrics(out *outcome, pr *probeResult, t *tracer, sequential bool) error {
	var forks []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := pr.fork(); err != nil {
			return err
		}
		forks = append(forks, float64(time.Since(start).Nanoseconds())/1e6)
	}
	for i := 0; pr.scan != nil && i < 9; i++ {
		start := time.Now()
		pr.scan()
		pr.dlcNs = append(pr.dlcNs, float64(time.Since(start).Nanoseconds()))
	}
	runS := sum(t.durations("sim.run"))
	shardS := sum(t.durations("shard.run"))
	set := func(name string, v float64, exact bool) {
		out.metrics[name] = v
		if exact {
			out.counts[name] = v
		}
	}
	set("sim.events", float64(pr.events), true)
	set("sim.pending_max", float64(pr.pendingMax), true)
	out.metrics["sim.run_s"] = runS
	if runS+shardS > 0 {
		out.metrics["sim.events_per_s"] = float64(pr.events) / (runS + shardS)
	}
	set("damping.penalty_updates", float64(pr.penalty), true)
	set("damping.suppressions", float64(pr.suppress), true)
	set("damping.reuses_noisy", float64(pr.noisy), true)
	set("damping.reuses_silent", float64(pr.silent), true)
	set("bgp.delivered", float64(pr.delivered), true)
	out.metrics["bgp.construct_s"] = sum(t.durations("bgp.construct"))
	out.metrics["bgp.fork_ms"] = median(forks)
	out.metrics["bgp.damped_link_count_ns"] = median(pr.dlcNs)
	calls := 0.0
	if sequential {
		calls = float64(pr.suppress + pr.unsuppress)
	}
	set("bgp.damped_link_count_calls", calls, true)
	out.metrics["bgp.damped_scan_s"] = calls * median(pr.dlcNs) / 1e9
	if pr.shard.Epochs > 0 {
		set("shard.epochs", float64(pr.shard.Epochs), true)
		set("shard.injected", float64(pr.shard.Injected), true)
		out.metrics["shard.parallelism"] = pr.shard.Parallelism()
		out.metrics["shard.events_per_epoch"] = float64(pr.shard.TotalEvents) / float64(pr.shard.Epochs)
		out.metrics["shard.run_s"] = shardS
	}
	out.metrics["eventq.push_pop_ns"] = pushPopNs(pr.pendingMax)
	out.metrics["damping.update_ns"] = dampingUpdateNs(pr.streams, damping.EngineExact)
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// pushPopNs times one eventq Push plus one Pop on a queue held at depth
// (at least 1), the kernel's steady state.
func pushPopNs(depth int) float64 {
	depth = max(depth, 1)
	var q eventq.Queue[uint64]
	rng := rand.New(rand.NewSource(1))
	now := time.Duration(0)
	for i := 0; i < depth; i++ {
		q.Push(now+time.Duration(rng.Int63n(int64(time.Minute))), uint64(i))
	}
	const ops = 1 << 18
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(time.Minute)))
	}
	var best float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			at, _, _ := q.Pop()
			now = at
			q.Push(now+delays[i&4095], uint64(i))
		}
		ns := float64(time.Since(start).Nanoseconds()) / ops
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// dampingUpdateNs times one damping-state update (alternating withdrawal and
// re-announcement, one second apart per stream) across streams states of the
// given engine under Cisco parameters.
func dampingUpdateNs(streams int, engine damping.EngineKind) float64 {
	streams = max(streams, 1)
	params := damping.Cisco()
	type updater interface {
		Update(time.Duration, damping.Kind, bool) damping.Event
	}
	states := make([]updater, streams)
	var wheel *damping.Wheel
	if engine == damping.EngineWheel {
		wheel = damping.NewWheel(params, damping.DefaultWheelConfig())
	}
	for i := range states {
		if wheel != nil {
			states[i] = wheel.NewState(uint64(i))
		} else {
			states[i] = damping.NewState(params)
		}
	}
	const rounds = 8
	start := time.Now()
	for r := 0; r < rounds; r++ {
		kind := damping.KindWithdrawal
		if r%2 == 1 {
			kind = damping.KindReannouncement
		}
		now := time.Duration(r) * time.Second
		for _, s := range states {
			s.Update(now, kind, true)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*streams)
}

// allocsPerRun is the heap allocation count and bytes of one whole
// experiment.RunContext on mesh-100 with Cisco damping and 2 pulses (the
// scenario of the repository's core hot-path benchmark).
func allocsPerRun() (allocs, bytes float64, err error) {
	sc, err := experiment.DaemonScenario(experiment.DefaultOptions(), "mesh", "cisco", false)
	if err != nil {
		return 0, 0, err
	}
	sc.Pulses = 2
	return allocsOf(func() error {
		_, err := experiment.RunContext(context.Background(), sc)
		return err
	})
}

// allocsOf is the heap allocations and bytes per call of run. The garbage
// collector is off while it counts, and one warm-up call refills whatever
// the last collection emptied (sync.Pool caches), so the count does not
// depend on when a collection happens to run. The lowest of three batches
// is kept: an allocation made meanwhile by another goroutine (an HTTP
// connection closing, say) lands in one batch only.
func allocsOf(run func() error) (allocs, bytes float64, err error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := run(); err != nil {
		return 0, 0, err
	}
	const runs = 4
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := run(); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&after)
		a := float64(after.Mallocs-before.Mallocs) / runs
		if batch == 0 || a < allocs {
			allocs, bytes = a, float64(after.TotalAlloc-before.TotalAlloc)/runs
		}
	}
	return allocs, bytes, nil
}

// layerMicro fills the workload-independent allocation metrics.
func layerMicro(out *outcome) error {
	allocs, bytes, err := allocsPerRun()
	if err != nil {
		return fmt.Errorf("allocs per run: %w", err)
	}
	out.metrics["experiment.allocs_per_run"] = allocs
	out.metrics["experiment.bytes_per_run"] = bytes
	out.counts["experiment.allocs_per_run"] = allocs
	return nil
}

// meshProbe gives the workloads made of many small runs (figures-paper,
// rfdd-mix) their sim, bgp and damping numbers: the layer probe on mesh-100
// with Cisco damping and 2 pulses, the unit of work those workloads repeat,
// at protocol seed seed. Its counts must match experiment.RunContext on the
// same scenario.
func meshProbe(out *outcome, seed uint64) error {
	opts := experiment.DefaultOptions()
	opts.Seed = seed
	sc, err := experiment.DaemonScenario(opts, "mesh", "cisco", false)
	if err != nil {
		return err
	}
	sc.Pulses = 2
	t := newTracer()
	pr, err := probe(t, 0, sc)
	if err != nil {
		return fmt.Errorf("mesh probe: %w", err)
	}
	if err := probeMetrics(out, pr, t, true); err != nil {
		return err
	}
	res, err := experiment.RunContext(context.Background(), sc)
	if err != nil {
		return err
	}
	if err := layerMicro(out); err != nil {
		return err
	}
	conv, msgs := res.ConvergenceTime, res.MessageCount
	out.metrics["experiment.conv_s"] = conv.Seconds()
	out.metrics["experiment.msgs"] = float64(msgs)
	out.counts["experiment.conv_s"] = conv.Seconds()
	out.counts["experiment.msgs"] = float64(msgs)
	out.check(pr.delivered == uint64(msgs), "mesh probe delivered %d, Result.MessageCount %d", pr.delivered, msgs)
	out.check(pr.conv == conv, "mesh probe convergence %v, Result %v", pr.conv, conv)
	return nil
}
