package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rfd/damping"
	"rfd/experiment"
	"rfd/experiment/diskcache"
)

// The rfdd-mix workload: an rfdd daemon on loopback (-workers 2
// -concurrency 2, a fresh -cachedir) driven by a closed loop of 2 clients
// through a seeded schedule of /v1/sweep requests. Each repetition starts
// the daemon, runs the first half of the schedule, stops it with SIGTERM,
// restarts it on the same cache directory and runs the second half.
//
// Request classes:
//   - cold: a scenario fingerprint the daemon has not seen;
//   - pooled: new pulse counts on a scenario already warmed (the converged
//     snapshot is pooled);
//   - warm: an exact repeat of a request answered in this daemon's life
//     (in-memory RunCache hit);
//   - disk: after the restart, the first repeat of a request answered
//     before it (served from the disk cache).
const (
	scenariosPerHalf = 8
	warmPerStep      = 6
	streamShare      = 0.1
)

// sweepReq is the request body (the fields of rfdd's sweep request the
// workload uses).
type sweepReq struct {
	Topology string `json:"topology"`
	Rows     int    `json:"rows,omitempty"`
	Cols     int    `json:"cols,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Damping  string `json:"damping"`
	Engine   string `json:"damping_engine,omitempty"`
	RCN      bool   `json:"rcn,omitempty"`
	Pulses   []int  `json:"pulses"`
	Seed     uint64 `json:"seed"`
}

// point mirrors rfdd's wire form of one sweep point.
type point struct {
	Pulses          int     `json:"pulses"`
	ConvergenceSecs float64 `json:"convergence_s,omitempty"`
	Messages        int     `json:"messages,omitempty"`
	MaxDamped       int     `json:"max_damped,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// request is one scheduled request.
type request struct {
	id     int
	class  string
	req    sweepReq
	body   string
	stream bool
	after  int  // index in the half's schedule that must finish first, or -1
	sample bool // check the points against in-process experiment runs
}

// schedule is one repetition: two halves, one per daemon life.
type schedule [2][]*request

// newSchedule builds repetition rep of the workload seeded by seed.
func newSchedule(seed uint64, rep int) schedule {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(rep)))
	var s schedule
	nextID := 1
	add := func(half int, r *request) int {
		body, _ := json.Marshal(r.req)
		r.body = string(body)
		r.id = nextID
		nextID++
		r.stream = rng.Float64() < streamShare
		s[half] = append(s[half], r)
		return len(s[half]) - 1
	}
	// Scenario k of a half (k in 0..scenariosPerHalf-1, in seeded order):
	// half mesh-10x10, half internet-208; 3 in 8 Juniper, the rest Cisco;
	// 1 in 8 with RCN; about 1 in 5 on the wheel damping engine.
	scenario := func(half, i, k int) sweepReq {
		q := sweepReq{Damping: "cisco", Seed: seed*1000000 + uint64(rep)*1000 + uint64(half*scenariosPerHalf+i) + 1}
		if k%2 == 0 {
			q.Topology, q.Rows, q.Cols = "mesh", 10, 10
		} else {
			q.Topology, q.Nodes = "internet", 208
		}
		if k < 3 {
			q.Damping = "juniper"
		}
		q.RCN = k == 3
		if k == 4 || (half == 1 && k == 7) {
			q.Engine = "wheel"
		}
		return q
	}
	var answered [2][]int // schedule indexes whose replies can be repeated
	warm := func(half int) {
		for w := 0; w < warmPerStep && len(answered[half]) > 0; w++ {
			j := answered[half][rng.Intn(len(answered[half]))]
			add(half, &request{class: "warm", req: s[half][j].req, after: j})
		}
	}
	for half := 0; half < 2; half++ {
		if half == 1 {
			// Disk class: the first repeat of every request answered before
			// the restart, in shuffled order.
			for _, j := range rng.Perm(len(answered[0])) {
				r := s[0][answered[0][j]]
				if r.class == "cold" || r.class == "pooled" {
					answered[1] = append(answered[1], add(1, &request{class: "disk", req: r.req, after: -1}))
				}
			}
		}
		var colds []int
		for i, k := range rng.Perm(scenariosPerHalf) {
			q := scenario(half, i, k)
			q.Pulses = []int{0, 1, 2}
			c := add(half, &request{class: "cold", req: q, after: -1, sample: i == 0})
			colds = append(colds, c)
			answered[half] = append(answered[half], c)
			if i >= 2 {
				p := s[half][colds[i-2]].req
				p.Pulses = []int{3, 4}
				answered[half] = append(answered[half], add(half, &request{class: "pooled", req: p, after: colds[i-2]}))
			}
			warm(half)
		}
		for _, c := range colds[len(colds)-2:] {
			p := s[half][c].req
			p.Pulses = []int{3, 4}
			answered[half] = append(answered[half], add(half, &request{class: "pooled", req: p, after: c}))
			warm(half)
		}
	}
	return s
}

// daemon is one running rfdd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches rfdd and waits until /healthz answers 200; it
// returns the set-up time in seconds, less steal time.
func startDaemon(cfg *config, cacheDir string) (d *daemon, setup float64, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d = &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	d.cmd = exec.Command(filepath.Join(cfg.bin, "rfdd"), "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", "2", "-concurrency", "2", "-cachedir", cacheDir)
	d.cmd.Stderr = &d.stderr
	iv := startInterval()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	for time.Since(iv.start) < 20*time.Second {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, iv.stop(), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	return nil, 0, fmt.Errorf("rfdd did not become healthy: %s", d.stderr.Bytes())
}

// healthz is the part of rfdd's /healthz reply the workload reads.
type healthz struct {
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	Uncacheable       uint64 `json:"uncacheable"`
	DiskLoads         uint64 `json:"disk_loads"`
	DiskStores        uint64 `json:"disk_stores"`
	SnapshotHits      uint64 `json:"snapshot_hits"`
	SnapshotMisses    uint64 `json:"snapshot_misses"`
	SnapshotEvictions uint64 `json:"snapshot_evictions"`
}

func (d *daemon) health() (healthz, error) {
	var h healthz
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// stop sends SIGTERM and waits for the exit, returning the drain time.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	err := d.cmd.Wait()
	drain := time.Since(start)
	if err != nil {
		return drain, fmt.Errorf("rfdd exit after SIGTERM: %v: %s", err, d.stderr.Bytes())
	}
	return drain, nil
}

// reply is one answered request.
type reply struct {
	r          *request
	start, end time.Time
	firstEvent time.Duration // streams: time to the first NDJSON line
	status     int
	points     []point
	err        error
}

var client = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 4},
}

// send runs one request and parses the reply.
func send(base string, r *request) reply {
	out := reply{r: r, start: time.Now()}
	path := "/v1/sweep"
	if r.stream {
		path = "/v1/sweep/stream"
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader([]byte(r.body)))
	if err != nil {
		out.err, out.end = err, time.Now()
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	if r.stream {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var last []byte
		for sc.Scan() {
			if last == nil {
				out.firstEvent = time.Since(out.start)
			}
			last = append(last[:0], sc.Bytes()...)
		}
		out.end = time.Now()
		var done struct {
			Event      string  `json:"event"`
			Points     []point `json:"points"`
			Error      string  `json:"error"`
			HTTPStatus int     `json:"http_status"`
		}
		if err := json.Unmarshal(last, &done); err != nil || done.Event != "done" {
			out.err = fmt.Errorf("stream did not end with a done event: %q", last)
			return out
		}
		out.points, out.status = done.Points, done.HTTPStatus
		if done.Error != "" {
			out.err = fmt.Errorf("%s", done.Error)
		}
		return out
	}
	var body struct {
		Points []point `json:"points"`
		Error  string  `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	out.end = time.Now()
	if err != nil {
		out.err = err
		return out
	}
	out.points = body.Points
	if body.Error != "" {
		out.err = fmt.Errorf("%s", body.Error)
	}
	return out
}

// runHalf sends one half of a schedule with 2 closed-loop clients. A
// request waits for the one it depends on before it is sent.
func runHalf(base string, reqs []*request) []reply {
	replies := make([]reply, len(reqs))
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if a := reqs[i].after; a >= 0 {
					<-done[a]
				}
				replies[i] = send(base, reqs[i])
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return replies
}

// pointsKey is the canonical byte form of a reply's points.
func pointsKey(p []point) string {
	b, _ := json.Marshal(p)
	return string(b)
}

// rfddRep is what one repetition measured.
type rfddRep struct {
	sched   schedule
	replies []reply
	setups  []float64
	drains  []time.Duration
	wall    float64 // both halves, without the starts
	cpu     float64
	rss     []float64 // per daemon life
	health  [2]healthz
	exits   []error // per daemon life: nil when rfdd exited 0 on SIGTERM
}

// runRfddRep runs one repetition: start, first half, SIGTERM, restart on
// the same cache directory, second half, SIGTERM.
func runRfddRep(cfg *config, rep int) (*rfddRep, error) {
	cacheDir, err := os.MkdirTemp(cfg.work, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)
	r := &rfddRep{sched: newSchedule(cfg.seed, rep)}
	// Extra set-up samples: start and stop the daemon on an empty cache.
	for i := 0; i < 2; i++ {
		empty, err := os.MkdirTemp(cfg.work, "empty-")
		if err != nil {
			return nil, err
		}
		d, setup, err := startDaemon(cfg, empty)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		if _, err := d.stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(empty)
	}
	for half := 0; half < 2; half++ {
		d, setup, err := startDaemon(cfg, cacheDir)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		iv := startInterval()
		r.replies = append(r.replies, runHalf(d.base, r.sched[half])...)
		r.wall += iv.stop()
		if r.health[half], err = d.health(); err != nil {
			d.stop()
			return nil, err
		}
		drain, err := d.stop()
		r.exits = append(r.exits, err)
		r.drains = append(r.drains, drain)
		ru := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
		r.cpu += cpuOf(ru)
		r.rss = append(r.rss, rssMB(ru))
	}
	return r, nil
}

// checkReplies counts the repetition's operations and failures: every
// daemon life must end with rfdd exiting 0 on SIGTERM; every reply must be a 200 with one point per pulse count and no point errors;
// repeats must be byte-identical to the first reply for the same request;
// sampled cold requests must equal in-process experiment runs.
func checkReplies(out *outcome, rep *rfddRep) {
	for i, err := range rep.exits {
		out.attempted++
		if err != nil {
			out.fail("daemon life %d: %v", i+1, err)
		}
	}
	first := map[string]string{}
	for _, rp := range rep.replies {
		out.attempted++
		r := rp.r
		switch {
		case rp.err != nil:
			out.fail("request %d (%s): %v", r.id, r.class, rp.err)
			continue
		case rp.status != http.StatusOK:
			out.fail("request %d (%s): status %d", r.id, r.class, rp.status)
			continue
		case len(rp.points) != len(r.req.Pulses):
			out.fail("request %d (%s): %d points for %d pulse counts", r.id, r.class, len(rp.points), len(r.req.Pulses))
			continue
		}
		key := pointsKey(rp.points)
		if prev, ok := first[r.body]; ok && prev != key {
			out.fail("request %d (%s): reply differs from the first reply to the same request", r.id, r.class)
			continue
		} else if !ok {
			first[r.body] = key
		}
		if r.sample {
			want, err := inProcessPoints(r.req)
			if err != nil {
				out.fail("request %d: in-process run: %v", r.id, err)
			} else if pointsKey(want) != key {
				out.fail("request %d (%s): points %s, in-process experiment.Run gives %s", r.id, r.class, key, pointsKey(want))
			}
		}
	}
}

// scenarioOf materializes a request the way rfdd does.
func scenarioOf(q sweepReq) (experiment.Scenario, error) {
	o := experiment.DefaultOptions()
	o.MeshRows, o.MeshCols = 5, 5
	o.InternetNodes = 30
	if q.Rows > 0 {
		o.MeshRows = q.Rows
	}
	if q.Cols > 0 {
		o.MeshCols = q.Cols
	}
	if q.Nodes > 0 {
		o.InternetNodes = q.Nodes
	}
	if q.Seed > 0 {
		o.Seed = q.Seed
	}
	engine, err := damping.ParseEngine(q.Engine)
	if err != nil {
		return experiment.Scenario{}, err
	}
	o.DampingEngine = engine
	return experiment.DaemonScenario(o, q.Topology, q.Damping, q.RCN)
}

// toPoints renders sweep points in rfdd's wire form.
func toPoints(pts []experiment.SweepPoint) []point {
	out := make([]point, len(pts))
	for i, p := range pts {
		out[i] = point{Pulses: p.Pulses}
		if p.Err != nil {
			out[i].Error = p.Err.Error()
			continue
		}
		out[i].ConvergenceSecs = p.Result.ConvergenceTime.Seconds()
		out[i].Messages = p.Result.MessageCount
		out[i].MaxDamped = p.Result.MaxDamped
	}
	return out
}

// inProcessPoints runs every pulse count of q from scratch with
// experiment.RunContext.
func inProcessPoints(q sweepReq) ([]point, error) {
	sc, err := scenarioOf(q)
	if err != nil {
		return nil, err
	}
	pts := make([]experiment.SweepPoint, len(q.Pulses))
	for i, n := range q.Pulses {
		sc.Pulses = n
		pts[i].Pulses = n
		if pts[i].Result, err = experiment.RunContext(context.Background(), sc); err != nil {
			return nil, err
		}
	}
	return toPoints(pts), nil
}

func runRfdd(cfg *config, out *outcome) error {
	t := newTracer()
	deadline := cfg.deadline(time.Now())
	var reps []*rfddRep
	var ser series
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		r, err := runRfddRep(cfg, rep)
		if err != nil {
			return err
		}
		ser.setup = append(ser.setup, r.setups...)
		ser.add(r.wall, r.cpu, r.rss...)
		checkReplies(out, r)
		reps = append(reps, r)
	}
	if cfg.trace {
		return traceRfdd(cfg, out, t, reps)
	}
	ser.report(out)
	return nil
}

// traceRfdd reports the per-layer view of rfdd-mix: client-side request
// spans and daemon counters from the repetitions already run, then an
// in-process replay of repetition 0 through RunCache, CheckpointPool and a
// timed diskcache, wired the way rfdd wires them.
func traceRfdd(cfg *config, out *outcome, t *tracer, reps []*rfddRep) error {
	lat := map[string][]float64{}
	var firstEvents, drains []float64
	var requests int
	var busy float64
	var h healthz
	for _, r := range reps {
		for _, rp := range r.replies {
			t.add("rfdd.request", 0, rp.r.id, rp.start, rp.end)
			lat[rp.r.class] = append(lat[rp.r.class], float64(rp.end.Sub(rp.start).Nanoseconds())/1e6)
			if rp.r.stream && rp.firstEvent > 0 {
				firstEvents = append(firstEvents, float64(rp.firstEvent.Nanoseconds())/1e6)
			}
			if rp.status == http.StatusTooManyRequests {
				out.metrics["rfdd.rejected"]++
			}
			requests++
		}
		busy += r.wall
		for _, d := range r.drains {
			drains = append(drains, seconds(d))
		}
		for _, hh := range r.health {
			h.CacheHits += hh.CacheHits
			h.CacheMisses += hh.CacheMisses
			h.Uncacheable += hh.Uncacheable
			h.DiskLoads += hh.DiskLoads
			h.DiskStores += hh.DiskStores
			h.SnapshotHits += hh.SnapshotHits
			h.SnapshotMisses += hh.SnapshotMisses
			h.SnapshotEvictions += hh.SnapshotEvictions
		}
	}
	m := out.metrics
	m["rfdd.req_per_s"] = float64(requests) / busy
	for _, c := range []struct {
		class string
		tail  float64
		name  string
	}{{"cold", 0.9, "p90"}, {"pooled", 0.9, "p90"}, {"warm", 0.99, "p99"}, {"disk", 0.9, "p90"}} {
		m["rfdd."+c.class+"_p50_ms"] = median(lat[c.class])
		m["rfdd."+c.class+"_"+c.name+"_ms"] = percentile(lat[c.class], c.tail)
		m["rfdd."+c.class+"_n"] = float64(len(lat[c.class]))
	}
	m["rfdd.stream_first_event_ms"] = median(firstEvents)
	m["rfdd.drain_s"] = median(drains)
	m["runcache.hits"], m["runcache.misses"], m["runcache.uncacheable"] = float64(h.CacheHits), float64(h.CacheMisses), float64(h.Uncacheable)
	if total := h.CacheHits + h.CacheMisses + h.Uncacheable; total > 0 {
		m["runcache.hit_ratio"] = float64(h.CacheHits) / float64(total)
	}
	m["pool.hits"], m["pool.misses"], m["pool.evictions"] = float64(h.SnapshotHits), float64(h.SnapshotMisses), float64(h.SnapshotEvictions)
	if total := h.SnapshotHits + h.SnapshotMisses; total > 0 {
		m["pool.hit_ratio"] = float64(h.SnapshotHits) / float64(total)
	}
	m["diskcache.loads"], m["diskcache.stores"] = float64(h.DiskLoads), float64(h.DiskStores)

	// Replay repetition 0 in-process: a warm-up pass, then traced, then
	// untraced, so neither measured pass pays for first-use costs.
	if _, err := replay(cfg, out, reps[0], nil); err != nil {
		return err
	}
	rs, err := replay(cfg, out, reps[0], t)
	if err != nil {
		return err
	}
	untraced, err := replay(cfg, out, reps[0], nil)
	if err != nil {
		return err
	}
	m["diskcache.load_ms"] = median(rs.loads)
	m["diskcache.store_ms"] = median(rs.stores)
	m["pool.get_ms"] = median(rs.poolHits)
	m["experiment.converge_s"] = sum(t.durations("experiment.converge"))
	m["experiment.point_s"] = sum(t.durations("experiment.point"))
	m["experiment.points_live"] = float64(len(t.durations("experiment.point")))
	m["rfdd.overhead_ms"] = median(lat["warm"]) - median(rs.warm)
	if err := meshProbe(out, cfg.seed); err != nil {
		return err
	}
	reportTrace(cfg, out, t, rs.root, seconds(untraced.wall))
	return nil
}

// timedStore wraps the disk cache with spans and timings around Load and
// Store.
type timedStore struct {
	c      *diskcache.Cache
	t      *tracer
	parent *atomic.Int64
	loads  []float64 // hits only
	stores []float64
	mu     sync.Mutex
}

func (s *timedStore) Load(key string) (*experiment.Result, bool, error) {
	start := time.Now()
	id := s.t.begin("diskcache.load", int(s.parent.Load()), 0)
	res, ok, err := s.c.Load(key)
	s.t.end(id)
	if ok {
		s.mu.Lock()
		s.loads = append(s.loads, float64(time.Since(start).Nanoseconds())/1e6)
		s.mu.Unlock()
	}
	return res, ok, err
}

func (s *timedStore) Store(key string, res *experiment.Result) error {
	start := time.Now()
	id := s.t.begin("diskcache.store", int(s.parent.Load()), 0)
	err := s.c.Store(key, res)
	s.t.end(id)
	s.mu.Lock()
	s.stores = append(s.stores, float64(time.Since(start).Nanoseconds())/1e6)
	s.mu.Unlock()
	return err
}

// replayStats is what one in-process replay measured.
type replayStats struct {
	root                    int
	wall                    time.Duration
	loads, stores, poolHits []float64
	warm                    []float64 // SweepContext time of warm-class requests, ms
}

// replay runs a repetition's requests in order on one goroutine with one
// sweep worker, against a fresh RunCache, CheckpointPool and disk cache
// (new memory caches at the restart, same disk directory), and checks every
// reply against the daemon's in the traced pass: with a tracer, each call
// into a layer gets a span under a per-request rfdd.replay span, and each
// request counts as one attempted operation.
func replay(cfg *config, out *outcome, rep *rfddRep, t *tracer) (*replayStats, error) {
	dir, err := os.MkdirTemp(cfg.work, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := diskcache.Open(dir)
	if err != nil {
		return nil, err
	}
	var parent atomic.Int64
	store := &timedStore{c: disk, t: t, parent: &parent}
	var warmup atomic.Int64
	points := map[int]int{}
	prog := &experiment.Progress{
		WarmupStarted: func() { warmup.Store(int64(t.begin("experiment.converge", int(parent.Load()), 0))) },
		WarmupDone:    func() { t.end(int(warmup.Load())) },
		PointStarted:  func(n int) { points[n] = t.begin("experiment.point", int(parent.Load()), 0) },
		PointDone:     func(p experiment.SweepPoint) { t.end(points[p.Pulses]) },
	}
	ctx := experiment.WithProgress(context.Background(), prog)
	daemonReply := map[int]string{}
	for _, rp := range rep.replies {
		daemonReply[rp.r.id] = pointsKey(rp.points)
	}
	rs := &replayStats{}
	start := time.Now()
	rs.root = t.begin("bench.traced", 0, 0)
	for half := 0; half < 2; half++ {
		cache := experiment.NewRunCache()
		cache.SetStore(store)
		pool := experiment.NewCheckpointPool(experiment.DefaultPoolSize)
		cache.SetCheckpointPool(pool)
		for _, r := range rep.sched[half] {
			reqSpan := t.begin("rfdd.replay", rs.root, r.id)
			sc, err := scenarioOf(r.req)
			if err != nil {
				return nil, err
			}
			if r.class == "cold" || r.class == "pooled" {
				// The sweep's own CheckpointPool.Get is then a hit.
				parent.Store(int64(t.begin("pool.get", reqSpan, r.id)))
				getStart := time.Now()
				if _, err := pool.Get(ctx, sc); err != nil {
					return nil, err
				}
				if r.class == "pooled" {
					rs.poolHits = append(rs.poolHits, float64(time.Since(getStart).Nanoseconds())/1e6)
				}
				t.end(int(parent.Load()))
			}
			sweepStart := time.Now()
			parent.Store(int64(t.begin("runcache.sweep", reqSpan, r.id)))
			pts, err := cache.SweepContext(ctx, sc, r.req.Pulses, 1)
			t.end(int(parent.Load()))
			if r.class == "warm" {
				rs.warm = append(rs.warm, float64(time.Since(sweepStart).Nanoseconds())/1e6)
			}
			t.end(reqSpan)
			if err != nil {
				return nil, err
			}
			if t == nil {
				continue // replies are checked once, in the traced pass
			}
			out.attempted++
			if got := pointsKey(toPoints(pts)); got != daemonReply[r.id] {
				out.fail("replay of request %d (%s): %s, daemon answered %s", r.id, r.class, got, daemonReply[r.id])
			}
		}
	}
	t.end(rs.root)
	rs.wall = time.Since(start)
	rs.loads, rs.stores = store.loads, store.stores
	return rs, nil
}
