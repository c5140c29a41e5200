// Command perfbench is the repository's benchmark: four workloads
// (figures-paper, rfdd-mix, internet-2000, internet-2000-sharded) measured
// end to end with tracing off, or layer by layer with spans around the calls
// into each package (--trace 1).
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload internet-2000 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare base.jsonl head.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding the rfdfig and rfdd binaries
	work     string // scratch directory for this run, removed at the end
	self     string // path of this executable, for child processes
	record   string // optional: write digests and counts to this file
}

// deadline is when the timed phase of the run stops starting new work.
func (c *config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds * float64(time.Second)))
}

// outcome is what a workload reports: operation counts, metric values, the
// correctness failures it saw, and the deterministic values the exact gate
// compares (counts) or the output digests (digests).
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	problems  []string
	digests   map[string]string
	counts    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, digests: map[string]string{}, counts: map[string]float64{}}
}

// fail records one failed operation and why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// check records a correctness failure that is not tied to one operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*config, *outcome) error{
	"figures-paper":         runFigures,
	"rfdd-mix":              runRfdd,
	"internet-2000":         runInternet,
	"internet-2000-sharded": runInternet,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "figures-paper | rfdd-mix | internet-2000 | internet-2000-sharded")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.bin, "bin", filepath.Join(".bench_build", "bin"), "directory with the rfdfig and rfdd binaries")
	fs.StringVar(&cfg.record, "record", "", "write the run's digests and exact counts to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = *traceFlag == 1
	var err error
	if cfg.self, err = os.Executable(); err != nil {
		return err
	}
	if cfg.bin, err = filepath.Abs(cfg.bin); err != nil {
		return err
	}
	for _, b := range []string{"rfdfig", "rfdd"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return fmt.Errorf("missing binary (build with perfbench/run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if cfg.work, err = os.MkdirTemp(".bench_build", "work-"); err != nil {
		return err
	}
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	out := newOutcome()
	steal0 := stolen()
	if err := run(cfg, out); err != nil {
		return err
	}
	out.metrics["host.steal_per_cpu_s"] = (stolen() - steal0) / float64(runtime.NumCPU())
	gateExact(cfg, out)
	if cfg.record != "" {
		if err := writeRecord(cfg, out); err != nil {
			return err
		}
	}
	return report(cfg, out, os.Stdout)
}

// report prints the human-readable lines and then the result object.
func report(cfg *config, out *outcome, w *os.File) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-34s %g\n", n, out.metrics[n])
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "# CHECK FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{out.metrics[d.name], d.unit}
	}
	if out.attempted < 1 {
		out.attempted = 1
		out.failed = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0 && out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
