package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: name is "<layer>.<call>", parent the
// id of the enclosing span (0 for the root), req the request it served (0
// when the workload has no requests).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// add records a span measured elsewhere (e.g. a client request).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

// durations returns the lengths in seconds of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	t.mu.Unlock()
	return f.Close()
}

// layerOf maps a span name to its layer (the part before the first dot).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's self time: its duration minus the
// part of it that its child spans cover. Spans that never closed are
// ignored.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.End >= s.Start && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// traceLayers are the layers the self-time metrics report. "bench" is the
// benchmark's own root span: its self time is the traced wall time that no
// layer span covers.
var traceLayers = []string{"topology", "bgp", "sim", "shard", "experiment", "runcache", "pool", "diskcache", "rfdd", "bench"}

// attributedShare is the share of the traced wall time that the layers'
// self times account for; the root's own self time ("bench") is left out,
// so time spent outside every layer span lowers the share.
func attributedShare(self map[string]float64, wall float64) float64 {
	sum := 0.0
	for _, l := range traceLayers {
		if l != "bench" {
			sum += self[l]
		}
	}
	return sum / wall
}

// attributedEnough is the traced run's check that the layer spans account
// for the traced wall time to within 10 %.
func attributedEnough(share float64) bool { return share >= 0.9 && share <= 1.1 }

// reportTrace fills the trace.* and self.* metrics from the spans under
// root, whose duration is the traced wall time, and writes the spans under
// the run's work directory's parent so they survive the run.
func reportTrace(cfg *config, out *outcome, t *tracer, root int, untracedWall float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	r := spans[root-1]
	wall := float64(r.End-r.Start) / 1e9
	inRoot := make([]span, 0, len(spans))
	keep := map[int]bool{root: true}
	for _, s := range spans {
		if s.ID == root || keep[s.Parent] {
			keep[s.ID] = true
			inRoot = append(inRoot, s)
		}
	}
	self := selfTimes(inRoot)
	for _, l := range traceLayers {
		out.metrics["self."+l+"_s"] = self[l]
	}
	out.metrics["trace.wall_s"] = wall
	out.metrics["trace.untraced_wall_s"] = untracedWall
	out.metrics["trace.overhead_s"] = wall - untracedWall
	if wall > 0 {
		share := attributedShare(self, wall)
		out.metrics["trace.self_sum_share"] = share
		out.check(attributedEnough(share), "layer self times (root excluded) sum to %.3f of traced wall", share)
	}
	dir := ".bench_build/traces"
	if os.MkdirAll(dir, 0o755) == nil {
		t.write(dir + "/" + cfg.workload + ".jsonl")
	}
}
