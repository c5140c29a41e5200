package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"rfd/experiment"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1.5, 2.25, 9, 4}, 1.875, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiment.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "experiment.b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "sim.run", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "bgp.open", Start: 90, End: -1}, // never closed
	}
	got := map[string]float64{}
	for layer, s := range selfTimes(spans) {
		got[layer] = math.Round(s * 1e9)
	}
	want := map[string]float64{"bench": 50, "experiment": 55, "sim": 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	// Half the root's time is outside every layer span: the check fails.
	if share := attributedShare(selfTimes(spans), 100e-9); attributedEnough(share) {
		t.Fatalf("share %.3f with 50%% unattributed passed the check", share)
	}
	covered := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiment.a", Start: 2, End: 60},
		{ID: 3, Parent: 1, Name: "rfdd.b", Start: 61, End: 98},
	}
	if share := attributedShare(selfTimes(covered), 100e-9); !attributedEnough(share) || math.Abs(share-0.95) > 1e-9 {
		t.Fatalf("share %.3f with 5%% unattributed, want 0.95 and a pass", share)
	}
}

func runs(workload string, vals ...float64) []runLine {
	var out []runLine
	for i, v := range vals {
		var l runLine
		l.Workload, l.Seed = workload, uint64(i+1)
		l.Result.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"wall_s": {v}}
		out = append(out, l)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"wall_s", "s", "lower", 0.1})
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"same code", steady, []float64{1.01, 0.99, 1.00, 1.00, 1.01, 0.98, 1.02, 1.00, 0.99, 1.01}, "unchanged"},
		{"faster", steady, scale(steady, 0.8), "improved"},
		{"slower", steady, scale(steady, 1.3), "worse"},
		// The base's own spread (about 0.5 of its median) is wider than
		// the bound, and head is only a little slower: neither worse nor
		// unchanged can be claimed.
		{"noisy", []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}, []float64{0.7, 1.5, 0.8, 1.3, 1.05, 0.85, 1.2, 0.95, 1.15, 1.0}, "unresolved"},
	} {
		rows := compareRuns(spec, runs("w", c.base...), runs("w", c.head...))
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("%s: verdict %+v, want %s", c.name, rows, c.want)
		}
	}
}

func TestGateComparesExactly(t *testing.T) {
	exp := &expectedFile{
		Outputs: map[string]string{"internet/1": "conv=1 msgs=2 damped=3"},
		Counts:  map[string]map[string]float64{"w/1": {"sim.events": 8576, "experiment.allocs_per_run": 6391}},
	}
	ok := func(events, allocs float64, result string) bool {
		out := newOutcome()
		out.counts["sim.events"] = events
		out.counts["experiment.allocs_per_run"] = allocs
		out.digests["internet/1"] = result
		return len(compareRecorded(exp, "w/1", out)) == 0
	}
	if !ok(8576, 6391, "conv=1 msgs=2 damped=3") {
		t.Error("recorded values rejected")
	}
	if !ok(8576, 6000, "conv=1 msgs=2 damped=3") {
		t.Error("fewer allocations rejected")
	}
	if ok(8577, 6391, "conv=1 msgs=2 damped=3") {
		t.Error("off-by-one event count accepted")
	}
	if ok(8576, 6392, "conv=1 msgs=2 damped=3") {
		t.Error("extra allocation accepted")
	}
	if ok(8576, 6391, "conv=1 msgs=3 damped=3") {
		t.Error("changed result accepted")
	}
}

var sink []byte

// The gate must catch one extra allocation per run, measured the way the
// benchmark measures it, and an off-by-one event count from the probe.
func TestGateCatchesSeededChanges(t *testing.T) {
	small, err := experiment.DaemonScenario(experiment.Options{MeshRows: 5, MeshCols: 5, Seed: 1}, "mesh", "cisco", false)
	if err != nil {
		t.Fatal(err)
	}
	small.Pulses = 2
	run := func() error {
		_, err := experiment.RunContext(context.Background(), small)
		return err
	}
	base, _, err := allocsOf(run)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := allocsOf(run)
	if err != nil {
		t.Fatal(err)
	}
	extra, _, err := allocsOf(func() error {
		sink = make([]byte, 64)
		return run()
	})
	if err != nil {
		t.Fatal(err)
	}

	pr, err := probe(newTracer(), 0, small)
	if err != nil {
		t.Fatal(err)
	}
	exp := &expectedFile{Counts: map[string]map[string]float64{"w/1": {
		"experiment.allocs_per_run": base,
		"sim.events":                float64(pr.events),
	}}}
	check := func(allocs float64, events uint64) []string {
		out := newOutcome()
		out.counts["experiment.allocs_per_run"] = allocs
		out.counts["sim.events"] = float64(events)
		return compareRecorded(exp, "w/1", out)
	}
	if p := check(again, pr.events); len(p) != 0 {
		t.Errorf("a second measurement of the same code fails the gate: %v", p)
	}
	if p := check(extra, pr.events); len(p) != 1 || !strings.Contains(p[0], "allocs_per_run") {
		t.Errorf("one extra allocation per run (%v -> %v) not caught: %v", base, extra, p)
	}
	if p := check(base, pr.events+1); len(p) != 1 || !strings.Contains(p[0], "sim.events") {
		t.Errorf("off-by-one event count not caught: %v", p)
	}
}

func TestProbeReproducesExperiment(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sc, err := experiment.DaemonScenario(experiment.Options{MeshRows: 6, MeshCols: 6, Seed: 3, Shards: shards}, "mesh", "cisco", false)
		if err != nil {
			t.Fatal(err)
		}
		sc.Pulses = 2
		res, err := experiment.RunContext(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := probe(newTracer(), 0, sc)
		if err != nil {
			t.Fatal(err)
		}
		if pr.delivered != uint64(res.MessageCount) || pr.conv != res.ConvergenceTime {
			t.Errorf("shards=%d: probe delivered %d conv %v, experiment %d %v", shards, pr.delivered, pr.conv, res.MessageCount, res.ConvergenceTime)
		}
	}
}

func TestScheduleIsSeededAndOrdered(t *testing.T) {
	a, b := newSchedule(7, 0), newSchedule(7, 0)
	body := func(s schedule) []string {
		var out []string
		for _, half := range s {
			for _, r := range half {
				out = append(out, r.class+" "+r.body)
			}
		}
		return out
	}
	if !reflect.DeepEqual(body(a), body(b)) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(body(a), body(newSchedule(8, 0))) {
		t.Fatal("different seeds, same schedule")
	}
	classes := map[string]int{}
	for h, half := range a {
		for i, r := range half {
			classes[r.class]++
			if r.after >= i {
				t.Errorf("half %d request %d depends on a later request %d", h, i, r.after)
			}
		}
	}
	for _, c := range []string{"cold", "pooled", "warm", "disk"} {
		if classes[c] == 0 {
			t.Errorf("no %s requests", c)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	list := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	listJSON := func(defs []struct{ Name, Unit string }) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name+" "+d.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := listJSON(spec.EndToEnd), list(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, benchmark prints %v", got, want)
	}
	if got, want := listJSON(spec.PerLayer), list(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, benchmark prints %v", got, want)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
}

// runHalf sends from two clients at once and honours dependencies: a
// request is sent only after the one it depends on has been answered.
func TestRunHalfOrdersDependencies(t *testing.T) {
	var mu sync.Mutex
	answered := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q sweepReq
		json.NewDecoder(r.Body).Decode(&q)
		mu.Lock()
		answered[fmt.Sprint(q.Seed)] = true
		mu.Unlock()
		pts := make([]point, len(q.Pulses))
		for i, n := range q.Pulses {
			pts[i] = point{Pulses: n, Messages: int(q.Seed)}
		}
		json.NewEncoder(w).Encode(map[string]any{"points": pts})
	}))
	defer srv.Close()
	var reqs []*request
	for i := 0; i < 20; i++ {
		r := &request{id: i + 1, class: "cold", req: sweepReq{Seed: uint64(i + 1), Pulses: []int{0, 1}}, after: -1}
		if i%2 == 1 {
			r.after = i - 1
		}
		body, _ := json.Marshal(r.req)
		r.body = string(body)
		reqs = append(reqs, r)
	}
	replies := runHalf(srv.URL, reqs)
	for i, rp := range replies {
		if rp.err != nil || rp.status != http.StatusOK || len(rp.points) != 2 || rp.points[0].Messages != i+1 {
			t.Fatalf("reply %d: %+v", i, rp)
		}
		if a := reqs[i].after; a >= 0 && rp.start.Before(replies[a].end) {
			t.Errorf("request %d sent before request %d was answered", i, a)
		}
	}
}
