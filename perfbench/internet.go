package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"rfd/experiment"
)

// The internet workloads run one 2000-node Internet-derived topology
// (generator seed 1) with Cisco damping and one pulse. Each repetition runs
// in a fresh process and takes its protocol seed from the workload seed and
// the repetition number, so a run averages over a few scenarios of the same
// size instead of riding on one.
const internetNodes = 2000

// repSeed is the protocol seed of repetition rep under workload seed seed.
func repSeed(seed uint64, rep int) uint64 { return seed + 100000*uint64(rep) }

// internetScenario builds the 2000-node scenario with protocol seed seed.
func internetScenario(seed uint64, shards int) (experiment.Scenario, error) {
	o := experiment.DefaultOptions()
	o.InternetNodes = internetNodes
	o.Shards = shards
	sc, err := experiment.DaemonScenario(o, "internet", "cisco", false)
	if err != nil {
		return sc, err
	}
	sc.Config.Seed = seed
	sc.Pulses = 1
	return sc, nil
}

// resultKey is the deterministic part of a Result the checks compare.
func resultKey(r *experiment.Result) string {
	return fmt.Sprintf("conv=%d msgs=%d damped=%d", r.ConvergenceTime.Nanoseconds(), r.MessageCount, r.MaxDamped)
}

// childResult is what one internet repetition reports to the parent.
type childResult struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	Result string  `json:"result"`
}

// childMain runs one repetition in this (fresh) process: set-up is topology
// generation plus experiment.NewCheckpointContext, the timed work is
// Checkpoint.RunContext.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "protocol seed")
	shards := fs.Int("shards", 1, "shard count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	var r childResult
	iv := startInterval()
	sc, err := internetScenario(*seed, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	cp, err := experiment.NewCheckpointContext(ctx, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	r.SetupS = iv.stop()
	cpu0 := selfCPU()
	iv = startInterval()
	res, err := cp.RunContext(ctx, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	r.WallS = iv.stop()
	r.CPUS, r.Result = selfCPU()-cpu0, resultKey(res)
	json.NewEncoder(os.Stdout).Encode(r)
	return 0
}

// runChild runs one repetition and returns its report and rusage.
func runChild(cfg *config, seed uint64, shards int) (*childResult, *syscall.Rusage, error) {
	cmd := exec.Command(cfg.self, "child", "-seed", fmt.Sprint(seed), "-shards", fmt.Sprint(shards))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%v: %s", err, stderr.Bytes())
	}
	var r childResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, nil, err
	}
	return &r, cmd.ProcessState.SysUsage().(*syscall.Rusage), nil
}

func shardsOf(workload string) int {
	if workload == "internet-2000-sharded" {
		return 2
	}
	return 1
}

func runInternet(cfg *config, out *outcome) error {
	shards := shardsOf(cfg.workload)
	if cfg.trace {
		return traceInternet(cfg, out, shards)
	}
	deadline := cfg.deadline(time.Now())
	var reps series
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		seed := repSeed(cfg.seed, rep)
		out.attempted++
		r, ru, err := runChild(cfg, seed, shards)
		if err != nil {
			out.fail("repetition %d (seed %d): %v", rep, seed, err)
			continue
		}
		out.digests[fmt.Sprintf("internet/%d", seed)] = r.Result
		reps.setup = append(reps.setup, r.SetupS)
		reps.add(r.WallS, r.CPUS, rssMB(ru))
	}
	reps.report(out)
	return nil
}

// traceInternet is the traced run: the layer probe drives repetition 0's
// scenario under spans; then the same scenario runs untraced through the
// experiment API (whose Result the probe must reproduce) and on the other
// engine (which must agree).
func traceInternet(cfg *config, out *outcome, shards int) error {
	ctx := context.Background()
	seed := repSeed(cfg.seed, 0)
	t := newTracer()
	root := t.begin("bench.traced", 0, 0)
	var sc experiment.Scenario
	var err error
	t.timed("topology.generate", root, 0, func() { sc, err = internetScenario(seed, shards) })
	if err != nil {
		return err
	}
	out.attempted++
	pr, err := probe(t, root, sc)
	t.end(root)
	if err != nil {
		out.fail("layer probe: %v", err)
		return nil
	}

	// Untraced: the same scenario through the experiment API.
	var warmStart time.Time
	var converge time.Duration
	pctx := experiment.WithProgress(ctx, &experiment.Progress{
		WarmupStarted: func() { warmStart = time.Now() },
		WarmupDone:    func() { converge = time.Since(warmStart) },
	})
	out.attempted++
	start := time.Now()
	sc2, err := internetScenario(seed, shards)
	if err != nil {
		return err
	}
	cp, err := experiment.NewCheckpointContext(pctx, sc2)
	if err != nil {
		out.fail("checkpoint: %v", err)
		return nil
	}
	pointStart := time.Now()
	res, err := cp.RunContext(ctx, sc2)
	untraced := time.Since(start)
	if err != nil {
		out.fail("checkpointed run: %v", err)
		return nil
	}
	point := time.Since(pointStart)
	out.digests[fmt.Sprintf("internet/%d", seed)] = resultKey(res)
	out.check(pr.delivered == uint64(res.MessageCount), "probe delivered %d, Result.MessageCount %d", pr.delivered, res.MessageCount)
	out.check(pr.conv == res.ConvergenceTime, "probe convergence %v, Result %v", pr.conv, res.ConvergenceTime)

	// The other engine must agree on the same scenario.
	other := sc2
	other.Shards = 3 - shards
	out.attempted++
	if res2, err := experiment.RunContext(ctx, other); err != nil {
		out.fail("run on the other engine: %v", err)
	} else if resultKey(res2) != resultKey(res) {
		out.fail("shards=%d gives %s, shards=%d gives %s", shards, resultKey(res), other.Shards, resultKey(res2))
	}

	if err := probeMetrics(out, pr, t, shards == 1); err != nil {
		return err
	}
	out.metrics["experiment.converge_s"] = seconds(converge)
	out.metrics["experiment.point_s"] = seconds(point)
	out.metrics["experiment.points_live"] = 1
	out.metrics["experiment.conv_s"] = res.ConvergenceTime.Seconds()
	out.metrics["experiment.msgs"] = float64(res.MessageCount)
	out.counts["experiment.conv_s"] = res.ConvergenceTime.Seconds()
	out.counts["experiment.msgs"] = float64(res.MessageCount)
	if err := layerMicro(out); err != nil {
		return err
	}
	reportTrace(cfg, out, t, root, seconds(untraced))
	return nil
}
