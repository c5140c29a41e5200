package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// expected.json holds, per workload seed, the output digests and the
// deterministic per-layer counts of the recorded seeds (a development seed
// and a held-out seed). The file is embedded so the gate works from any
// directory; record it again with --record after an intended change.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	DevSeed     uint64                        `json:"dev_seed"`
	HeldOutSeed uint64                        `json:"heldout_seed"`
	Outputs     map[string]string             `json:"outputs"`
	Counts      map[string]map[string]float64 `json:"counts"`
}

func loadExpected(data []byte) (*expectedFile, error) {
	e := &expectedFile{Outputs: map[string]string{}, Counts: map[string]map[string]float64{}}
	if len(data) == 0 {
		return e, nil
	}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, err
	}
	if e.Outputs == nil {
		e.Outputs = map[string]string{}
	}
	if e.Counts == nil {
		e.Counts = map[string]map[string]float64{}
	}
	return e, nil
}

// countsKey names a run's exact counts in expected.json.
func countsKey(cfg *config) string { return fmt.Sprintf("%s/%d", cfg.workload, cfg.seed) }

// gateExact compares the run's outputs and deterministic counts with the
// recorded ones, where a recording exists.
func gateExact(cfg *config, out *outcome) {
	exp, err := loadExpected(expectedJSON)
	if err != nil {
		out.check(false, "expected.json: %v", err)
		return
	}
	for _, p := range compareRecorded(exp, countsKey(cfg), out) {
		out.check(false, "%s", p)
	}
}

// compareRecorded lists every difference between out and the recording.
// Outputs and counts compare exactly, with one exception: an allocation
// count may fall (that is a gain) but not rise.
func compareRecorded(exp *expectedFile, key string, out *outcome) []string {
	var problems []string
	for k, got := range out.digests {
		if want, ok := exp.Outputs[k]; ok && want != got {
			problems = append(problems, fmt.Sprintf("output %s: got %s, recorded %s", k, got, want))
		}
	}
	want := exp.Counts[key]
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		got, ok := out.counts[n]
		switch {
		case !ok:
			// Counts of the other mode (traced or not) are not in this run.
		case n == "experiment.allocs_per_run" && got <= want[n]:
		case got != want[n]:
			problems = append(problems, fmt.Sprintf("count %s: got %v, recorded %v", n, got, want[n]))
		}
	}
	return problems
}

// writeRecord merges this run's outputs and counts into the file at
// cfg.record.
func writeRecord(cfg *config, out *outcome) error {
	data, err := os.ReadFile(cfg.record)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	exp, err := loadExpected(data)
	if err != nil {
		return err
	}
	for k, v := range out.digests {
		exp.Outputs[k] = v
	}
	if len(out.counts) > 0 {
		exp.Counts[countsKey(cfg)] = out.counts
	}
	data, err = json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.record, append(data, '\n'), 0o644)
}
