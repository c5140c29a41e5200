package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// The comparator judges two sets of benchmark runs of the same workloads,
// base (the parent commit) and head (the change):
//
//	perfbench compare [-bench BENCHMARK.json] base.jsonl head.jsonl
//
// Each input line is one run: {"workload": ..., "seed": ..., "result":
// <the benchmark's last output line>}. For every workload and end-to-end
// metric it prints the median and quartiles of each side, the share of
// seed-paired runs the head won, and a verdict:
//
//   - improved: head wins at least 9 of 10 pairs (ties count for neither)
//     and the medians differ, in head's favour, by more than base's
//     interquartile distance;
//   - worse: head's median is worse than base's by more than the metric's
//     bound;
//   - unresolved: not worse by the bound, but base's own spread is wider
//     than the bound, so "unchanged" cannot be claimed — unless every head
//     run beats every base run, which counts as improved;
//   - unchanged: otherwise.

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runLine is one benchmark run.
type runLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// verdictRow is one workload and metric.
type verdictRow struct {
	Workload, Metric        string
	BaseMed, BaseQ1, BaseQ3 float64
	HeadMed, HeadQ1, HeadQ3 float64
	Pairs, Won              int
	Verdict                 string
}

func readRuns(r io.Reader) ([]runLine, error) {
	var runs []runLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, err
		}
		runs = append(runs, l)
	}
	return runs, sc.Err()
}

// values collects one metric of one workload, keyed by seed in run order.
func values(runs []runLine, workload, metric string) (vals []float64, seeds []uint64) {
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			vals = append(vals, m.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vals, seeds
}

// judge applies the verdict rules to one metric. lower says smaller is
// better; bound is the metric's allowed worsening as a share of base's
// median.
func judge(base, head []float64, baseSeeds, headSeeds []uint64, lower bool, bound float64) verdictRow {
	row := verdictRow{}
	row.BaseMed, row.HeadMed = median(base), median(head)
	row.BaseQ1, row.BaseQ3 = quartiles(base)
	row.HeadQ1, row.HeadQ3 = quartiles(head)
	better := func(h, b float64) bool {
		if lower {
			return h < b
		}
		return h > b
	}
	// Pair runs by seed where both sides ran it, else by position.
	bySeed := map[uint64]float64{}
	for i, s := range baseSeeds {
		bySeed[s] = base[i]
	}
	for i, s := range headSeeds {
		b, ok := bySeed[s]
		if !ok {
			if i >= len(base) {
				continue
			}
			b = base[i]
		}
		row.Pairs++
		if better(head[i], b) {
			row.Won++
		}
	}
	if len(base) == 0 || len(head) == 0 {
		row.Verdict = "unresolved"
		return row
	}
	spread := row.BaseQ3 - row.BaseQ1
	worsening := (row.HeadMed - row.BaseMed) / row.BaseMed
	if !lower {
		worsening = -worsening
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	switch {
	case worsening > bound:
		row.Verdict = "worse"
	case row.Pairs > 0 && 10*row.Won >= 9*row.Pairs && better(row.HeadMed, row.BaseMed) &&
		abs(row.HeadMed-row.BaseMed) > spread:
		row.Verdict = "improved"
	case allBetter:
		row.Verdict = "improved"
	case spread/row.BaseMed > bound:
		row.Verdict = "unresolved"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareRuns judges every workload and end-to-end metric.
func compareRuns(spec *benchSpec, base, head []runLine) []verdictRow {
	seen := map[string]bool{}
	var names []string
	for _, r := range append(append([]runLine(nil), base...), head...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	var rows []verdictRow
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			bv, bs := values(base, w, m.Name)
			hv, hs := values(head, w, m.Name)
			row := judge(bv, hv, bs, hs, m.Better != "higher", m.Bound)
			row.Workload, row.Metric = w, m.Name
			rows = append(rows, row)
		}
	}
	return rows
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var sides [2][]runLine
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
		sides[i], err = readRuns(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", path, err)
			return 1
		}
	}
	printRows(w, compareRuns(&spec, sides[0], sides[1]))
	return 0
}

func printRows(w io.Writer, rows []verdictRow) {
	fmt.Fprintf(w, "%-22s %-12s %30s %30s %7s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-12s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %3d/%-3d  %s\n",
			r.Workload, r.Metric, r.BaseMed, r.BaseQ1, r.BaseQ3, r.HeadMed, r.HeadQ1, r.HeadQ3, r.Won, r.Pairs, r.Verdict)
	}
}
