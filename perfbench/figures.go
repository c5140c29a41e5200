package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rfd/experiment"
)

// rfdfigRun is one rfdfig process: its wall time, rusage and the SHA-256
// of every CSV it wrote.
type rfdfigRun struct {
	wall    float64
	ru      *syscall.Rusage
	digests map[string]string
}

// runRfdfig runs the rfdfig binary writing into a fresh directory.
func runRfdfig(cfg *config, dir string, args ...string) (*rfdfigRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "rfdfig"), append([]string{"-noplot", "-out", dir}, args...)...)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	iv := startInterval()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("rfdfig %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	r := &rfdfigRun{ru: cmd.ProcessState.SysUsage().(*syscall.Rusage)}
	r.wall = iv.stop()
	var err error
	r.digests, err = digestDir(dir)
	return r, err
}

// digestDir hashes every file in dir.
func digestDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// sameDigests reports the first difference between two digest sets.
func sameDigests(a, b map[string]string) error {
	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if a[n] != b[n] {
			return fmt.Errorf("%s differs (%.12s vs %.12s)", n, a[n], b[n])
		}
	}
	return nil
}

// figureFiles is how many CSVs `rfdfig -fig all` writes.
const figureFiles = 15

func recordFigureDigests(out *outcome, seed uint64, d map[string]string) {
	for name, sum := range d {
		out.digests[fmt.Sprintf("figures-paper/%d/%s", seed, name)] = sum
	}
}

// figureSeeds is how many rfdfig seeds one run cycles through, so that a
// run's median does not ride on one seed's topologies.
const figureSeeds = 5

// figureSeed is the rfdfig -seed of repetition rep under workload seed seed.
func figureSeed(seed uint64, rep int) uint64 { return seed + 1000*uint64(rep%figureSeeds) }

func runFigures(cfg *config, out *outcome) error {
	if cfg.trace {
		return traceFigures(cfg, out)
	}
	deadline := cfg.deadline(time.Now())
	digests := map[uint64]map[string]string{}
	var reps series
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		// Set-up, sampled between repetitions: the same binary answering
		// -fig table1 (start-up, no simulation).
		for i := 0; i < 3; i++ {
			r, err := runRfdfig(cfg, filepath.Join(cfg.work, "table1"), "-fig", "table1")
			if err != nil {
				return err
			}
			reps.setup = append(reps.setup, r.wall)
		}
		out.attempted++
		seed := figureSeed(cfg.seed, rep)
		dir := filepath.Join(cfg.work, fmt.Sprintf("all-%d", rep))
		r, err := runRfdfig(cfg, dir, "-fig", "all", "-seed", fmt.Sprint(seed), "-workers", "2")
		os.RemoveAll(dir)
		switch {
		case err != nil:
			out.fail("%v", err)
		case len(r.digests) != figureFiles:
			out.fail("repetition %d wrote %d files, want %d", rep, len(r.digests), figureFiles)
			err = errors.New("missing files")
		case digests[seed] == nil:
			digests[seed] = r.digests
			recordFigureDigests(out, seed, r.digests)
		default:
			if err = sameDigests(digests[seed], r.digests); err != nil {
				out.fail("repetition %d (seed %d) differs from an earlier run of the same seed: %v", rep, seed, err)
			}
		}
		if err == nil {
			reps.add(r.wall, cpuOf(r.ru), rssMB(r.ru))
		}
	}
	reps.report(out)
	return nil
}

// figureStep is one rfdfig generator: the experiment call and the CSVs it
// writes, in rfdfig's order.
type figureStep struct {
	name string
	run  func(o experiment.Options) (map[string]func(io.Writer) error, error)
}

var figureSteps = []figureStep{
	{"Table1", func(experiment.Options) (map[string]func(io.Writer) error, error) {
		return map[string]func(io.Writer) error{"table1.csv": experiment.WriteTable1CSV}, nil
	}},
	{"Fig3", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		d, err := experiment.Fig3(o)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"fig3_penalty.csv": d.WriteCSV}, nil
	}},
	{"Fig7", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		d, err := experiment.Fig7(o)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"fig7_penalty.csv": d.WriteCSV}, nil
	}},
	{"Eval", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		d, err := experiment.Eval(o)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{
			"fig8_convergence.csv":      d.WriteFig8CSV,
			"fig9_messages.csv":         d.WriteFig9CSV,
			"fig13_rcn_convergence.csv": d.WriteFig13CSV,
			"fig14_rcn_messages.csv":    d.WriteFig14CSV,
		}, nil
	}},
	{"Fig10", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		d, err := experiment.Fig10(o)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"fig10_series.csv": d.WriteCSV}, nil
	}},
	{"Fig15", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		d, err := experiment.Fig15(o)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"fig15_policy.csv": d.WriteCSV}, nil
	}},
	{"PartialDeployment", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		rows, err := experiment.PartialDeployment(o, []int{0, 25, 50, 75, 100}, 1)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"ext_deployment.csv": func(w io.Writer) error { return experiment.WriteDeploymentCSV(w, rows) }}, nil
	}},
	{"FilterComparison", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		rows, err := experiment.FilterComparison(o, experiment.PulseRange(0, o.MaxPulses))
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"ext_filters.csv": func(w io.Writer) error { return experiment.WriteFilterCSV(w, rows) }}, nil
	}},
	{"FlapIntervalSweep", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		rows, err := experiment.FlapIntervalSweep(o, []time.Duration{
			15 * time.Second, 30 * time.Second, 60 * time.Second,
			2 * time.Minute, 5 * time.Minute, 15 * time.Minute, 30 * time.Minute,
		}, 3)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"ext_intervals.csv": func(w io.Writer) error { return experiment.WriteIntervalCSV(w, rows) }}, nil
	}},
	{"TopologySizeSweep", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		rows, err := experiment.TopologySizeSweep(o, []int{4, 6, 8, 10, 12}, 1)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"ext_sizes.csv": func(w io.Writer) error { return experiment.WriteSizeCSV(w, rows) }}, nil
	}},
	{"ConvergenceEvents", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		rows, err := experiment.ConvergenceEvents(o)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"ext_events.csv": func(w io.Writer) error { return experiment.WriteEventsCSV(w, rows) }}, nil
	}},
	{"LossSweep", func(o experiment.Options) (map[string]func(io.Writer) error, error) {
		rows, err := experiment.LossSweep(o, experiment.DefaultLossRates, 2)
		if err != nil {
			return nil, err
		}
		return map[string]func(io.Writer) error{"ext_loss.csv": func(w io.Writer) error { return experiment.WriteLossCSV(w, rows) }}, nil
	}},
}

// traceFigures calls the figure functions in-process, in rfdfig's order,
// with a shared RunCache and one sweep worker so spans nest without
// overlapping. Progress hooks add warm-up and point spans under each
// figure's span. The untraced reference is rfdfig itself with one worker.
func traceFigures(cfg *config, out *outcome) error {
	out.attempted++
	ref, err := runRfdfig(cfg, filepath.Join(cfg.work, "reference"), "-fig", "all", "-seed", fmt.Sprint(cfg.seed), "-workers", "1")
	if err != nil {
		out.fail("%v", err)
		return nil
	}

	t := newTracer()
	var parent atomic.Int64
	var warmup atomic.Int64
	point := map[int]int{}
	var live int
	prog := &experiment.Progress{
		WarmupStarted: func() { warmup.Store(int64(t.begin("experiment.converge", int(parent.Load()), 0))) },
		WarmupDone:    func() { t.end(int(warmup.Load())) },
		PointStarted:  func(n int) { point[n] = t.begin("experiment.point", int(parent.Load()), 0) },
		PointDone: func(p experiment.SweepPoint) {
			t.end(point[p.Pulses])
			live++
		},
		CacheHit: func(experiment.SweepPoint) {
			now := time.Now()
			t.add("runcache.hit", int(parent.Load()), 0, now, now)
		},
	}
	o := experiment.DefaultOptions()
	o.Seed = cfg.seed
	o.Workers = 1
	o.Cache = experiment.NewRunCache()
	o.Ctx = experiment.WithProgress(context.Background(), prog)

	out.attempted++
	digests := map[string]string{}
	root := t.begin("bench.traced", 0, 0)
	for _, step := range figureSteps {
		id := t.begin("experiment."+step.name, root, 0)
		parent.Store(int64(id))
		writers, err := step.run(o)
		t.end(id)
		if err != nil {
			t.end(root)
			out.fail("%s: %v", step.name, err)
			return nil
		}
		for name, write := range writers {
			h := sha256.New()
			if err := write(h); err != nil {
				t.end(root)
				return err
			}
			digests[name] = hex.EncodeToString(h.Sum(nil))
		}
	}
	t.end(root)
	// A second reference run after the traced one, so first-use costs do
	// not land on one side only.
	out.attempted++
	ref2, err := runRfdfig(cfg, filepath.Join(cfg.work, "reference2"), "-fig", "all", "-seed", fmt.Sprint(cfg.seed), "-workers", "1")
	if err != nil {
		out.fail("%v", err)
		return nil
	}
	if err := sameDigests(ref.digests, digests); err != nil {
		out.fail("in-process figures differ from rfdfig: %v", err)
	}
	recordFigureDigests(out, cfg.seed, digests)

	hits, misses, uncacheable := o.Cache.Stats()
	for name, v := range map[string]float64{"runcache.hits": float64(hits), "runcache.misses": float64(misses), "runcache.uncacheable": float64(uncacheable)} {
		out.metrics[name] = v
		out.counts[name] = v
	}
	if total := hits + misses + uncacheable; total > 0 {
		out.metrics["runcache.hit_ratio"] = float64(hits) / float64(total)
	}
	out.metrics["experiment.converge_s"] = sum(t.durations("experiment.converge"))
	out.metrics["experiment.point_s"] = sum(t.durations("experiment.point"))
	out.metrics["experiment.points_live"] = float64(live)
	out.counts["experiment.points_live"] = float64(live)
	if err := meshProbe(out, cfg.seed); err != nil {
		return err
	}
	reportTrace(cfg, out, t, root, (ref.wall+ref2.wall)/2)
	return nil
}
