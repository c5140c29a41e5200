// Package experiment assembles the paper's simulation methodology
// (Section 5.1) on top of the bgp engine and regenerates every table and
// figure of the evaluation:
//
//   - a base topology (mesh or Internet-derived) with a randomly chosen
//     ispAS and an attached originAS (Figure 1);
//   - a warm-up phase in which every node learns a stable route, after
//     which damping state and counters are cleared;
//   - a pulse workload: n × (withdrawal, announcement) at a fixed flapping
//     interval, the final update always an announcement;
//   - measurement of convergence time (from the final announcement to the
//     last update observed) and message count (total updates delivered from
//     the first flap), plus the update series, damped-link-count series,
//     penalty traces and phase decomposition used by Figs 3, 7–10, 13–15.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rfd/bgp"
	"rfd/check"
	"rfd/faults"
	"rfd/metrics"
	"rfd/sim"
	"rfd/topology"
	"rfd/trace"
)

// FlapPrefix is the destination originated by the originAS in every
// scenario.
const FlapPrefix = bgp.Prefix("origin/8")

// DefaultFlapInterval is the paper's flapping interval (Section 5.1).
const DefaultFlapInterval = 60 * time.Second

// PenaltyWatch selects one (router, peer) damping state whose penalty trace
// the run should record (Figs 3 and 7).
type PenaltyWatch struct {
	Router, Peer bgp.RouterID
}

// Scenario describes one simulation run. Graph is the base topology; Run
// clones it and attaches the originAS to ISP, so the caller's graph is never
// modified.
type Scenario struct {
	// Graph is the base topology (without the originAS).
	Graph *topology.Graph
	// ISP is the node the originAS attaches to.
	ISP topology.NodeID
	// Config is the protocol configuration for every router.
	Config bgp.Config
	// Pulses is the number of (withdrawal, announcement) pairs. Zero means
	// no flapping at all.
	Pulses int
	// FlapInterval separates consecutive flap events
	// (DefaultFlapInterval when zero).
	FlapInterval time.Duration
	// FlapViaLink, when true, flaps the physical originAS–ispAS link
	// (Network.SetLinkState) instead of toggling origination — the paper's
	// literal failure model. Both endpoints then stamp updates with link
	// root causes when RCN is enabled. The default origination toggle is
	// behaviourally equivalent and slightly cheaper.
	FlapViaLink bool
	// Watch lists damping states whose penalty traces to record. Router IDs
	// refer to the base graph; use OriginID() for the attached origin.
	Watch []PenaltyWatch
	// Trace, when non-nil, records every flap-phase event into the log
	// (times are flap-relative, like all Result times), appended after the
	// drain in canonical (At, Router) order.
	Trace *trace.Log
	// Impair, when non-nil, is forked onto every shard after warm-up, so
	// the flap phase and drain run under message loss / delay jitter while
	// the warm-up stays clean. The run consumes only its forks: the
	// caller's model is never installed or mutated. A lossy run may
	// legitimately end with divergent RIBs (dropped updates are never
	// retransmitted), so the post-run consistency check is fatal only when
	// Impair is nil.
	Impair *faults.Impairments
	// Faults, when non-nil, is applied after warm-up with the first flap as
	// its epoch: every Event.At is relative to the same clock zero as the
	// Result times.
	Faults *faults.Plan
	// Watchdog, when non-nil, drains the run under the convergence watchdog
	// instead of a bare kernel run: quiescent-instant consistency checks,
	// livelock abort, and a FaultReport on the Result.
	Watchdog *faults.WatchdogConfig
	// Shards is the number of shards the run topology is partitioned
	// across. Every run executes on a bgp.ShardedNetwork: Shards<=1 is the
	// one-shard ensemble, whose kernel is driven directly; Shards>1 runs
	// Shards kernels under conservative-lookahead epochs (sim.ShardGroup).
	// Each shard records into its own partial Result and the partials are
	// merged, so the Result is identical for every shard count — the shard
	// count is an execution detail, not a simulation input, which is why
	// Fingerprint ignores it. Shards>1 requires MinLinkDelay+MinProcDelay >
	// 0 and is incompatible with Watchdog, Check, and impairment models that
	// are not in per-link stream mode (faults.Impairments.UseLinkStreams).
	Shards int
	// Check, when true, runs the flap phase under the runtime invariant
	// checker (package check): a full RIB/timer/conservation sweep after
	// every event plus the differential damping oracle. Any violation fails
	// the run; the report lands on Result.Check either way. Checked runs are
	// several times slower — this is a debugging and CI mode, not a
	// measurement mode (the checker's own hooks do not perturb the
	// simulation, only wall-clock time).
	Check bool
}

// OriginID returns the router ID the attached originAS will receive: the
// node appended to the base graph.
func (s Scenario) OriginID() bgp.RouterID {
	return bgp.RouterID(s.Graph.NumNodes())
}

// validate checks the scenario before running.
func (s Scenario) validate() error {
	if s.Graph == nil {
		return fmt.Errorf("experiment: nil graph")
	}
	if s.Graph.NumNodes() == 0 {
		return fmt.Errorf("experiment: empty graph")
	}
	if int(s.ISP) < 0 || int(s.ISP) >= s.Graph.NumNodes() {
		return fmt.Errorf("experiment: ISP %d out of range", s.ISP)
	}
	if s.Pulses < 0 {
		return fmt.Errorf("experiment: negative pulse count %d", s.Pulses)
	}
	if s.FlapInterval < 0 {
		return fmt.Errorf("experiment: negative flap interval %v", s.FlapInterval)
	}
	if err := s.validateSharded(); err != nil {
		return err
	}
	return s.Config.Validate()
}

// validateSharded checks Shards against the features that need a single
// shard. A Shards<=1 scenario is unconstrained.
func (s Scenario) validateSharded() error {
	if s.Shards < 0 {
		return fmt.Errorf("experiment: negative shard count %d", s.Shards)
	}
	if s.Shards <= 1 {
		return nil
	}
	if s.Watchdog != nil {
		return fmt.Errorf("experiment: the convergence watchdog drives a single kernel; it cannot supervise a sharded run (Shards=%d)", s.Shards)
	}
	if s.Check {
		return fmt.Errorf("experiment: the invariant checker attaches to a single network; it cannot observe a sharded run (Shards=%d)", s.Shards)
	}
	if s.Impair != nil && !s.Impair.LinkStreams() {
		return fmt.Errorf("experiment: sharded runs need per-link impairment streams (faults.Impairments.UseLinkStreams); the global stream's consumption order is engine-dependent")
	}
	if _, err := bgp.Lookahead(s.Config); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

// Result captures everything a single run measured.
type Result struct {
	// Pulses echoes the workload size.
	Pulses int
	// Origin and ISP are the router IDs in the run's (cloned) topology.
	Origin, ISP bgp.RouterID
	// FlapStart is the time of the first withdrawal and FlapEnd the time of
	// the final announcement. All Result times share one clock whose zero is
	// the first flap (so FlapStart is 0 whenever Pulses > 0), matching the
	// paper's figure axes.
	FlapStart, FlapEnd time.Duration
	// ConvergenceTime is the paper's metric: last update delivery minus
	// FlapEnd (zero when nothing followed the final announcement).
	ConvergenceTime time.Duration
	// MessageCount is the total number of updates delivered network-wide
	// from the first flap on.
	MessageCount int
	// Updates records every update delivery time (basis of Fig 10's 5 s
	// series).
	Updates *metrics.EventSeries
	// Damped tracks the number of suppressed (router, peer) states over
	// time (Fig 10's damped-link count).
	Damped *metrics.StepSeries
	// MaxDamped is the peak damped-link count.
	MaxDamped int
	// NoisyReuses / SilentReuses count reuse-timer outcomes (Section 4.2).
	NoisyReuses, SilentReuses int
	// NoisyReuseTimes records when noisy reuses fired (phase analysis).
	NoisyReuseTimes *metrics.EventSeries
	// Phases is the four-state decomposition of the episode.
	Phases metrics.Phases
	// OriginSuppressed reports whether the ispAS ever suppressed the origin
	// link during the flap phase.
	OriginSuppressed bool
	// PenaltyTraces holds the recorded traces for each Watch entry, keyed
	// as given.
	PenaltyTraces map[PenaltyWatch]*metrics.FloatSeries
	// LastUpdateByRouter records when each router received its final
	// update, exposing how unevenly the convergence delay is distributed
	// (Section 7 observes that policy shrinks the affected set but the
	// affected nodes still converge very late).
	LastUpdateByRouter map[bgp.RouterID]time.Duration
	// EndTime is when the network fully drained (every in-flight update
	// delivered and every reuse timer fired), on the same flap-relative
	// clock.
	EndTime time.Duration
	// Dropped counts messages lost to impairments, session churn, and
	// crashes (zero in a fault-free run).
	Dropped uint64
	// FaultReport is the watchdog's verdict when Scenario.Watchdog was set,
	// nil otherwise.
	FaultReport *faults.Report
	// Check is the invariant checker's report when Scenario.Check was set,
	// nil otherwise. A run with violations fails outright, so a non-nil
	// report here is always clean; it still carries the sweep/oracle
	// coverage counters.
	Check *check.Report

	// fromStore marks a Result loaded from a persistent ResultStore, so the
	// RunCache does not write it straight back to disk.
	fromStore bool
}

// Run executes the scenario and returns its measurements. The run is a pure
// function of the scenario (deterministic).
func Run(sc Scenario) (*Result, error) {
	return RunContext(context.Background(), sc)
}

// RunContext is Run under a supervising context: the kernel polls ctx at an
// amortized granularity (sim.StopCheckInterval events) during warm-up, the
// pulse loop and the drain, and a tripped context stops the run with a typed
// ErrCanceled or ErrBudgetExceeded. An un-tripped context changes nothing —
// the run stays byte-identical to Run(sc), because the cooperative stop check
// only reads the context and never touches simulation state.
func RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	sn, origin, err := converge(ctx, sc)
	if err != nil {
		return nil, err
	}
	return measure(ctx, sc, sn, origin)
}

// wrapInterrupt maps a kernel/watchdog stop caused by the context into the
// package's typed error, and passes every other error through with the stage
// prefix.
func wrapInterrupt(ctx context.Context, stage string, err error) error {
	if ctx.Err() != nil && errors.Is(err, sim.ErrInterrupted) {
		return fmt.Errorf("experiment: %s: %w", stage, ctxErr(ctx))
	}
	return fmt.Errorf("experiment: %s: %w", stage, err)
}

// converge validates the scenario and executes its warm-up phase: build the
// run topology (base graph + originAS attached to the ispAS) on a
// max(Shards, 1)-shard ensemble, originate the flap prefix and drain until
// every node has learned a stable route, then align the shard clocks and
// wipe damping state and counters (Section 5.1: "Before the simulation
// starts, every node learns a stable route to the originAS"). The returned
// ensemble is quiescent and ready for measure — or for a
// ShardedNetwork.Snapshot, which is how sweeps amortize this phase across
// pulse counts. The caller owns the ensemble (Close it).
func converge(ctx context.Context, sc Scenario) (*bgp.ShardedNetwork, bgp.RouterID, error) {
	if err := sc.validate(); err != nil {
		return nil, 0, err
	}

	// Build the run topology: base graph + originAS attached to the ispAS.
	g := sc.Graph.Clone()
	origin := g.AddNode()
	if err := g.AddEdge(origin, sc.ISP); err != nil {
		return nil, 0, fmt.Errorf("experiment: attach origin: %w", err)
	}
	if g.Annotated() {
		if err := g.SetRelationship(origin, sc.ISP, topology.RelProvider); err != nil {
			return nil, 0, fmt.Errorf("experiment: annotate origin link: %w", err)
		}
	}
	var assign []int32 // nil: one shard owns every router
	if sc.Shards > 1 {
		var err error
		if assign, err = topology.Partition(g, sc.Shards); err != nil {
			return nil, 0, fmt.Errorf("experiment: partition: %w", err)
		}
	}
	sn, err := bgp.NewShardedNetwork(g, sc.Config, assign)
	if err != nil {
		return nil, 0, err
	}

	sn.Router(origin).Originate(FlapPrefix)
	if err := sn.Group().RunContext(ctx); err != nil {
		sn.Close()
		return nil, 0, wrapInterrupt(ctx, "warm-up", err)
	}
	sn.Align()
	sn.ResetDamping()
	sn.ResetCounters()
	return sn, origin, nil
}

// measure executes the scenario's flap phase and drain on a converged
// ensemble (fresh from converge, or a fork of a converged checkpoint) and
// computes the Result. It installs the measurement hooks, brings the fault
// apparatus alive at the epoch, runs the pulse workload and drains. It takes
// ownership of sn and closes it.
func measure(ctx context.Context, sc Scenario, sn *bgp.ShardedNetwork, origin bgp.RouterID) (*Result, error) {
	defer sn.Close()
	grp := sn.Group()
	interval := sc.FlapInterval
	if interval == 0 {
		interval = DefaultFlapInterval
	}

	// All result times are relative to the first flap, matching the paper's
	// figure axes. The ensemble is quiescent here, so nothing fires between
	// installing the hooks and the first withdrawal.
	epoch := grp.Now()

	// Every shard records into its own partial Result (and trace log) through
	// live hooks, which fire on that shard's goroutine only; the partials are
	// merged after the drain. Each shard also gets its own fork of the
	// impairment model, so the caller's model is never consumed and Run stays
	// a pure function of the scenario.
	parts := make([]*Result, sn.NumShards())
	var logs []*trace.Log
	var imps []*faults.Impairments
	for s := range parts {
		n := sn.Shard(s)
		parts[s] = newPartial(sc, origin, n.NumRouters()/len(parts))
		hooks := parts[s].recordHooks(sc, epoch)
		if sc.Trace != nil {
			logs = append(logs, trace.NewLog(0))
			hooks = bgp.MergeHooks(hooks, bgp.TraceHooks(logs[s]))
		}
		n.SetHooks(hooks)
		if sc.Impair != nil {
			imps = append(imps, sc.Impair.Fork())
			n.SetImpairment(imps[s])
		}
	}
	// The fault plan comes alive at the epoch, after the clean warm-up,
	// replicated to every shard at the same virtual times.
	if sc.Faults != nil {
		if err := sc.Faults.ApplySharded(sn, epoch, imps); err != nil {
			return nil, fmt.Errorf("experiment: fault plan: %w", err)
		}
	}

	// The invariant checker attaches after the hooks and fault apparatus so
	// it observes (and chains to) the final observer configuration. Attaching
	// here — on a converged network with damping state just reset — is the
	// supported mode: every shadow damping stream starts in sync. Validation
	// admits it on one shard only.
	var chk *check.Checker
	if sc.Check {
		var err error
		chk, err = check.Attach(sn.Shard(0), check.Options{
			ISP:    bgp.RouterID(sc.ISP),
			Origin: origin,
			Prefix: FlapPrefix,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: invariant checker: %w", err)
		}
		defer chk.Detach()
	}

	// Flap phase.
	flap := func(up bool) error {
		if sc.FlapViaLink {
			return sn.SetLinkState(origin, bgp.RouterID(sc.ISP), up)
		}
		if up {
			sn.Router(origin).Originate(FlapPrefix)
		} else {
			sn.Router(origin).StopOriginating(FlapPrefix)
		}
		return nil
	}
	var flapStart, flapEnd time.Duration
	if sc.Pulses > 0 {
		flapStart = grp.Now() - epoch
		for i := 0; i < sc.Pulses; i++ {
			if err := flap(false); err != nil {
				return nil, fmt.Errorf("experiment: pulse %d down: %w", i+1, err)
			}
			if err := grp.RunUntilContext(ctx, grp.Now()+interval); err != nil {
				return nil, wrapInterrupt(ctx, fmt.Sprintf("pulse %d", i+1), err)
			}
			if err := flap(true); err != nil {
				return nil, fmt.Errorf("experiment: pulse %d up: %w", i+1, err)
			}
			flapEnd = grp.Now() - epoch
			if i < sc.Pulses-1 {
				if err := grp.RunUntilContext(ctx, grp.Now()+interval); err != nil {
					return nil, wrapInterrupt(ctx, fmt.Sprintf("pulse %d", i+1), err)
				}
			}
		}
	}

	// Drain: every in-flight update and every reuse timer fires within the
	// max hold-down horizon. With a watchdog (one shard only) the drain is
	// supervised — quiescent-instant consistency checks and a livelock abort
	// instead of burning the kernel's whole event budget.
	var report *faults.Report
	if sc.Watchdog != nil {
		report = faults.WatchContext(ctx, sn.Shard(0), *sc.Watchdog)
		if report.Outcome == faults.Aborted {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("experiment: drain: %w", ctxErr(ctx))
			}
			return nil, fmt.Errorf("experiment: drain: %w: %w", ErrBudgetExceeded, report.Err)
		}
		if report.Outcome == faults.Livelock {
			return nil, fmt.Errorf("experiment: drain: %s", report)
		}
	} else if err := grp.RunContext(ctx); err != nil {
		return nil, wrapInterrupt(ctx, "drain", err)
	}

	res := mergePartials(parts)
	res.FlapStart, res.FlapEnd = flapStart, flapEnd
	res.FaultReport = report
	if chk != nil {
		res.Check = chk.Finish()
		if err := res.Check.Err(); err != nil {
			return nil, fmt.Errorf("experiment: invariant check: %w", err)
		}
	}
	res.EndTime = grp.Now() - epoch
	res.Dropped = sn.Dropped()
	res.MessageCount = res.Updates.Count()
	if last, ok := res.Updates.Last(); ok && last > res.FlapEnd {
		res.ConvergenceTime = last - res.FlapEnd
	}
	res.MaxDamped = res.Damped.Max()
	res.Phases = metrics.ComputePhases(res.Updates, res.NoisyReuseTimes, res.FlapStart, res.FlapEnd)
	if sc.Trace != nil {
		for _, ev := range trace.Merge(logs...).Events() {
			ev.At -= epoch
			sc.Trace.Append(ev)
		}
	}

	// The watchdog already ran the final consistency check (its verdict is
	// on the Result). Without one, run it here — but a lossy run may
	// legitimately diverge, so the failure is fatal only when no impairment
	// was configured.
	if report != nil {
		if report.Outcome == faults.Diverged && sc.Impair == nil {
			return nil, fmt.Errorf("experiment: post-run consistency: %w", report.Err)
		}
	} else if err := sn.CheckConsistency(); err != nil && sc.Impair == nil {
		return nil, fmt.Errorf("experiment: post-run consistency: %w", err)
	}
	return res, nil
}

// Checkpoint is a scenario's converged warm-up state, parked as an ensemble
// snapshot. Building one costs a single warm-up; Run then forks the
// checkpoint per measurement instead of re-converging from scratch, which is
// how sweeps amortize warm-up across pulse counts. A Checkpoint is safe for
// concurrent Run calls — each call forks its own independent copy.
//
// The parked state has the partition baked in, so a checkpoint only serves
// scenarios with the shard count it was built with (Shards 0 and 1 are the
// same one-shard ensemble). The run's Result is identical for every shard
// count (the cache fingerprint deliberately ignores Shards), but the parked
// kernel state is not interchangeable.
type Checkpoint struct {
	snap   *bgp.ShardedSnapshot
	origin bgp.RouterID
}

// Shards returns the shard count the checkpoint was built with (1 for a
// Shards 0 or 1 scenario).
func (c *Checkpoint) Shards() int { return c.snap.NumShards() }

// NewCheckpoint executes the scenario's warm-up once (exactly as Run would)
// and parks the converged state. Only the warm-up inputs matter here — the
// graph, ISP, Config and Shards; measurement-phase fields (Pulses,
// FlapInterval, Watch, Trace, Impair, Faults, Watchdog) take effect in
// Checkpoint.Run.
func NewCheckpoint(sc Scenario) (*Checkpoint, error) {
	return NewCheckpointContext(context.Background(), sc)
}

// NewCheckpointContext is NewCheckpoint with the warm-up run under ctx; a
// tripped context stops it with a typed ErrCanceled / ErrBudgetExceeded.
// The warm-up reports to the context's Progress hook (WithProgress):
// WarmupStarted before convergence begins, WarmupDone once the converged
// state is parked — warm-up dominates the latency of small sweeps, so a
// streaming client must be able to see it.
func NewCheckpointContext(ctx context.Context, sc Scenario) (*Checkpoint, error) {
	pr := progressFrom(ctx)
	pr.warmupStarted()
	cp, err := newCheckpointContext(ctx, sc)
	if err != nil {
		return nil, err
	}
	pr.warmupDone()
	return cp, nil
}

// newCheckpointContext is the hook-free warm-up body.
func newCheckpointContext(ctx context.Context, sc Scenario) (*Checkpoint, error) {
	sn, origin, err := converge(ctx, sc)
	if err != nil {
		return nil, err
	}
	defer sn.Close()
	snap, err := sn.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	return &Checkpoint{snap: snap, origin: origin}, nil
}

// Run forks the converged checkpoint and measures the scenario's flap phase
// on the fork, producing a Result identical to Run(sc) from scratch. sc must
// describe the same warm-up the checkpoint was built from (same Graph, ISP,
// Config and Shards); only the measurement-phase fields may differ between
// calls.
func (c *Checkpoint) Run(sc Scenario) (*Result, error) {
	return c.RunContext(context.Background(), sc)
}

// RunContext is Run with the measurement phase supervised by ctx, exactly as
// RunContext at package level: amortized cooperative stop checks, typed
// ErrCanceled / ErrBudgetExceeded, byte-identical results when the context
// never trips.
func (c *Checkpoint) RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if max(sc.Shards, 1) != c.Shards() {
		kind := "sequential"
		if c.Shards() > 1 {
			kind = "sharded"
		}
		return nil, fmt.Errorf("experiment: %s checkpoint built with Shards=%d cannot run Shards=%d (the partition is part of the parked state)", kind, c.Shards(), sc.Shards)
	}
	sn, err := c.snap.Fork()
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint fork: %w", err)
	}
	return measure(ctx, sc, sn, c.origin)
}

// ConvergenceSpread summarizes how long after the final announcement each
// router kept receiving updates (seconds). The maximum equals
// ConvergenceTime; the gap between median and maximum exposes how uneven
// the damping delay is across the network.
func (r *Result) ConvergenceSpread() metrics.Summary {
	vals := make([]float64, 0, len(r.LastUpdateByRouter))
	for _, at := range r.LastUpdateByRouter {
		d := at - r.FlapEnd
		if d < 0 {
			d = 0
		}
		vals = append(vals, d.Seconds())
	}
	return metrics.Summarize(vals)
}
