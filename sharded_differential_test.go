package rfd_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/experiment"
	"rfd/faults"
	"rfd/sim"
	"rfd/topology"
	"rfd/trace"
)

// shardedGoldenPath pins the sharded engine at scale: the canonical event
// trace of a faulty 208-node internet-derived run, recorded as an event count
// plus a SHA-256 digest (the full trace is megabytes; the digest pins it just
// as hard). Sequential and sharded engines must both reproduce it.
const shardedGoldenPath = "testdata/golden_shard_internet208.digest"

// diffCase is one cell of the sequential-vs-sharded differential matrix.
type diffCase struct {
	name   string
	graph  func(t *testing.T) *topology.Graph
	engine damping.EngineKind
	faults bool
	pulses int
	shards int
}

// synthASRel renders an annotated graph in CAIDA serial-1 form, so the
// differential matrix covers a graph that went through the importer.
func synthASRel(t *testing.T, g *topology.Graph) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# synthesized from " + g.Name() + "\n")
	asn := func(v topology.NodeID) int { return 10 + 7*int(v) } // order-preserving, sparse
	for _, e := range g.Edges() {
		a, b := e.A, e.B
		switch g.Relationship(a, b) {
		case topology.RelCustomer: // a provides transit to b
			fmt.Fprintf(&sb, "%d|%d|-1\n", asn(a), asn(b))
		case topology.RelProvider:
			fmt.Fprintf(&sb, "%d|%d|-1\n", asn(b), asn(a))
		default:
			fmt.Fprintf(&sb, "%d|%d|0\n", asn(a), asn(b))
		}
	}
	return sb.String()
}

// importedGraph round-trips an internet-derived graph through the CAIDA
// importer. The AS numbering is order-preserving, so the imported graph has
// the same node ids and (up to annotation) the same structure.
func importedGraph(t *testing.T, nodes int, seed uint64) *topology.Graph {
	t.Helper()
	base, err := topology.InternetDerived(topology.DefaultInternetConfig(nodes, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.ParseASRelationships(strings.NewReader(synthASRel(t, base)), "imported")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != base.NumNodes() || g.NumEdges() != base.NumEdges() {
		t.Fatalf("import round-trip changed shape: %d/%d nodes, %d/%d edges",
			g.NumNodes(), base.NumNodes(), g.NumEdges(), base.NumEdges())
	}
	return g
}

// faultDrive applies the shared fault schedule through either engine's
// entry points between timed run segments.
type faultDrive interface {
	SetLinkState(a, b bgp.RouterID, up bool) error
	ResetSession(a, b bgp.RouterID) error
}

// canonicalSharded runs warm-up plus pulses (and optionally faults) on either
// engine — shards <= 1 selects the sequential engine — and returns the
// canonical trace bytes.
func canonicalSharded(t *testing.T, g *topology.Graph, cfg bgp.Config, origin bgp.RouterID, pulses, shards int, withFaults bool) []byte {
	t.Helper()
	prefix := bgp.Prefix("origin/8")

	type engine struct {
		router  func(bgp.RouterID) *bgp.Router
		run     func() error
		runTo   func(time.Duration) error
		now     func() time.Duration
		align   func()
		drive   faultDrive
		logs    func() []*trace.Log
		counts  func() (uint64, uint64)
		impair  func(*faults.Impairments)
		cleanup func()
	}
	var eng engine
	if shards <= 1 {
		k := sim.NewKernel(sim.WithSeed(cfg.Seed))
		n, err := bgp.NewNetwork(k, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := trace.NewLog(0)
		n.SetHooks(bgp.TraceHooks(log))
		eng = engine{
			router:  n.Router,
			run:     k.Run,
			runTo:   k.RunUntil,
			now:     k.Now,
			align:   func() {},
			drive:   n,
			logs:    func() []*trace.Log { return []*trace.Log{log} },
			counts:  func() (uint64, uint64) { return n.Delivered(), n.Dropped() },
			impair:  func(im *faults.Impairments) { n.SetImpairment(im) },
			cleanup: func() {},
		}
	} else {
		assign, err := topology.Partition(g, shards)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := bgp.NewShardedNetwork(g, cfg, assign)
		if err != nil {
			t.Fatal(err)
		}
		logs := make([]*trace.Log, sn.NumShards())
		for s := range logs {
			logs[s] = trace.NewLog(0)
			sn.Shard(s).SetHooks(bgp.TraceHooks(logs[s]))
		}
		grp := sn.Group()
		eng = engine{
			router: sn.Router,
			run:    grp.Run,
			runTo:  grp.RunUntil,
			now:    grp.Now,
			align:  sn.Align,
			drive:  sn,
			logs:   func() []*trace.Log { return logs },
			counts: func() (uint64, uint64) { return sn.Delivered(), sn.Dropped() },
			impair: func(im *faults.Impairments) {
				for s := 0; s < sn.NumShards(); s++ {
					sn.Shard(s).SetImpairment(im.Fork())
				}
			},
			cleanup: sn.Close,
		}
	}
	defer eng.cleanup()

	eng.router(origin).Originate(prefix)
	if err := eng.run(); err != nil {
		t.Fatal(err)
	}
	eng.align()

	if withFaults {
		// Per-link streams on both engines: the global stream's consumption
		// order is engine-dependent, per-link streams are not.
		im := faults.NewImpairments(cfg.Seed)
		im.UseLinkStreams()
		if err := im.SetDefault(faults.Profile{Loss: 0.01, MaxJitter: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		eng.impair(im)
	}

	const interval = 60 * time.Second
	step := func(d time.Duration) {
		if err := eng.runTo(eng.now() + d); err != nil {
			t.Fatal(err)
		}
	}
	for pulse := 0; pulse < pulses; pulse++ {
		eng.router(origin).StopOriginating(prefix)
		step(interval)
		eng.router(origin).Originate(prefix)
		step(interval)
		if withFaults && pulse == 0 {
			if err := eng.drive.SetLinkState(0, 1, false); err != nil {
				t.Fatal(err)
			}
			step(30 * time.Second)
			if err := eng.drive.SetLinkState(0, 1, true); err != nil {
				t.Fatal(err)
			}
			if err := eng.drive.ResetSession(2, 3); err != nil {
				t.Fatal(err)
			}
			step(30 * time.Second)
		}
	}
	if err := eng.run(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.Merge(eng.logs()...).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	delivered, dropped := eng.counts()
	fmt.Fprintf(&buf, "delivered %d dropped %d\n", delivered, dropped)
	return buf.Bytes()
}

// TestShardedDifferentialMatrix is the tentpole's pinning property at the
// repo root: across topology families (mesh, internet-derived, CAIDA-
// imported), damping engines (exact, timer-wheel) and fault injection
// (off/on), the sharded engine's canonical trace is byte-identical to the
// sequential engine's for the same seed.
func TestShardedDifferentialMatrix(t *testing.T) {
	mesh := func(t *testing.T) *topology.Graph {
		g, err := topology.Torus(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	internet := func(t *testing.T) *topology.Graph {
		g, err := topology.InternetDerived(topology.DefaultInternetConfig(208, 3))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	imported := func(t *testing.T) *topology.Graph { return importedGraph(t, 60, 7) }

	var cases []diffCase
	for _, gr := range []struct {
		name   string
		graph  func(t *testing.T) *topology.Graph
		pulses int
	}{
		{"mesh6x6", mesh, 2},
		{"internet208", internet, 1},
		{"imported60", imported, 2},
	} {
		for _, eng := range []struct {
			name string
			kind damping.EngineKind
		}{
			{"exact", damping.EngineExact},
			{"wheel", damping.EngineWheel},
		} {
			for _, withFaults := range []bool{false, true} {
				fname := "clean"
				if withFaults {
					fname = "faulty"
				}
				cases = append(cases, diffCase{
					name:   gr.name + "/" + eng.name + "/" + fname,
					graph:  gr.graph,
					engine: eng.kind,
					faults: withFaults,
					pulses: gr.pulses,
					shards: 4,
				})
			}
		}
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g := c.graph(t)
			cfg := bgp.DefaultConfig()
			params := damping.Cisco()
			cfg.Damping = &params
			cfg.Seed = 13
			cfg.DampingEngine = c.engine
			origin := bgp.RouterID(g.NumNodes() / 2)
			want := canonicalSharded(t, g, cfg, origin, c.pulses, 1, c.faults)
			got := canonicalSharded(t, g, cfg, origin, c.pulses, c.shards, c.faults)
			if !bytes.Equal(want, got) {
				i := 0
				for i < len(want) && i < len(got) && want[i] == got[i] {
					i++
				}
				t.Fatalf("sharded trace diverges from sequential at byte %d (len %d vs %d)", i, len(want), len(got))
			}
		})
	}
}

// TestShardedForkDifferential extends the differential matrix with the fork
// legs the sharded checkpoint work introduces: for every {topology} × {exact,
// wheel} × {clean, faulty} cell, a point resumed from a forked sharded
// checkpoint must produce the byte-identical canonical trace of (a) a
// from-scratch sharded run and (b) a run resumed from a sequential checkpoint
// of the same scenario. (a) pins Snapshot/Fork round-tripping on the sharded
// engine; (b) pins that checkpointing did not reintroduce an engine skew the
// base matrix rules out for from-scratch runs.
func TestShardedForkDifferential(t *testing.T) {
	canonicalJSONL := func(t *testing.T, log *trace.Log) []byte {
		t.Helper()
		if log.Dropped() != 0 {
			t.Fatalf("trace dropped %d events", log.Dropped())
		}
		var buf bytes.Buffer
		// Canonical (At, Router) order: the sequential engine records live in
		// execution order, the sharded engine per shard — Merge maps both onto
		// the one comparable sequence.
		if err := trace.Merge(log).WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	runLeg := func(t *testing.T, sc experiment.Scenario,
		run func(experiment.Scenario) (*experiment.Result, error)) (*experiment.Result, []byte) {
		t.Helper()
		sc.Trace = trace.NewLog(0)
		res, err := run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res, canonicalJSONL(t, sc.Trace)
	}
	diverge := func(t *testing.T, leg string, want, got []byte) {
		t.Helper()
		if bytes.Equal(want, got) {
			return
		}
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		t.Fatalf("%s trace diverges from scratch sharded at byte %d (len %d vs %d)",
			leg, i, len(want), len(got))
	}

	for _, gr := range []struct {
		name   string
		graph  func(t *testing.T) *topology.Graph
		pulses int
	}{
		{"mesh6x6", func(t *testing.T) *topology.Graph {
			g, err := topology.Torus(6, 6)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, 2},
		{"internet208", func(t *testing.T) *topology.Graph {
			g, err := topology.InternetDerived(topology.DefaultInternetConfig(208, 3))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, 1},
	} {
		for _, eng := range []struct {
			name string
			kind damping.EngineKind
		}{
			{"exact", damping.EngineExact},
			{"wheel", damping.EngineWheel},
		} {
			for _, withFaults := range []bool{false, true} {
				fname := "clean"
				if withFaults {
					fname = "faulty"
				}
				gr, eng, withFaults := gr, eng, withFaults
				t.Run(gr.name+"/"+eng.name+"/"+fname, func(t *testing.T) {
					g := gr.graph(t)
					// mk builds a fresh scenario per leg: impairment streams are
					// consumed during a run, so legs must never share an
					// Impairments instance (same seed → identical streams).
					mk := func(shards int) experiment.Scenario {
						cfg := bgp.DefaultConfig()
						params := damping.Cisco()
						cfg.Damping = &params
						cfg.Seed = 13
						cfg.DampingEngine = eng.kind
						sc := experiment.Scenario{
							Graph:  g,
							ISP:    topology.NodeID(g.NumNodes() / 2),
							Config: cfg,
							Pulses: gr.pulses,
							Shards: shards,
						}
						if withFaults {
							im := faults.NewImpairments(cfg.Seed)
							im.UseLinkStreams()
							if err := im.SetDefault(faults.Profile{Loss: 0.01, MaxJitter: 2 * time.Millisecond}); err != nil {
								t.Fatal(err)
							}
							sc.Impair = im
							sc.Faults = faults.NewPlan(
								faults.FlapLink(30*time.Second, 0, 1, 30*time.Second),
								faults.ResetSession(45*time.Second, 2, 3),
								faults.CrashRouter(90*time.Second, 1, 0),
							)
						}
						return sc
					}

					scratchRes, scratchTrace := runLeg(t, mk(4), experiment.Run)
					if len(scratchTrace) == 0 {
						t.Fatal("empty trace: the comparison is vacuous")
					}

					cp4, err := experiment.NewCheckpoint(mk(4))
					if err != nil {
						t.Fatal(err)
					}
					if cp4.Shards() != 4 {
						t.Fatalf("checkpoint shards = %d, want 4", cp4.Shards())
					}
					shRes, shTrace := runLeg(t, mk(4), cp4.Run)
					diverge(t, "sharded-fork", scratchTrace, shTrace)
					if !reflect.DeepEqual(scratchRes, shRes) {
						t.Fatal("sharded-fork Result differs from scratch sharded Result")
					}

					cp1, err := experiment.NewCheckpoint(mk(0))
					if err != nil {
						t.Fatal(err)
					}
					seqRes, seqTrace := runLeg(t, mk(0), cp1.Run)
					diverge(t, "sequential-fork", scratchTrace, seqTrace)
					if !reflect.DeepEqual(scratchRes, seqRes) {
						t.Fatalf("sequential-fork Result diverges:\nseq:     %+v\nsharded: %+v", seqRes, scratchRes)
					}
				})
			}
		}
	}
}

// TestShardedGoldenInternet208 pins the sharded engine's behaviour at scale:
// event count and SHA-256 digest of the canonical trace of a faulty 208-node
// internet-derived run, for both the sequential reference and a 4-shard run.
// Run with -update to re-record after an intentional behaviour change.
func TestShardedGoldenInternet208(t *testing.T) {
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(208, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 13
	origin := bgp.RouterID(g.NumNodes() / 2)

	render := func(raw []byte) string {
		lines := bytes.Count(raw, []byte("\n"))
		sum := sha256.Sum256(raw)
		return fmt.Sprintf("lines %d sha256 %s\n", lines, hex.EncodeToString(sum[:]))
	}
	got := render(canonicalSharded(t, g, cfg, origin, 1, 1, true))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(shardedGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardedGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %s", shardedGoldenPath, got)
		return
	}
	want, err := os.ReadFile(shardedGoldenPath)
	if err != nil {
		t.Fatalf("missing golden digest (run with -update to record): %v", err)
	}
	if string(want) != got {
		t.Fatalf("sequential digest diverged:\nwant %sgot  %s", want, got)
	}
	if sharded := render(canonicalSharded(t, g, cfg, origin, 1, 4, true)); sharded != got {
		t.Fatalf("sharded digest diverged from sequential:\nseq   %sshard %s", got, sharded)
	}
}

// TestShardedGOMAXPROCS1 runs the golden 208-node scenario on four shards
// with a single processor. The coordinator's workers busy-wait on their
// handoff counters before parking, so this pins that a spinning goroutine
// always yields to the one it waits for: the run completes, and its merged
// trace equals the one-shard trace.
func TestShardedGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(208, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 13
	origin := bgp.RouterID(g.NumNodes() / 2)
	want := canonicalSharded(t, g, cfg, origin, 1, 1, true)
	if got := canonicalSharded(t, g, cfg, origin, 1, 4, true); !bytes.Equal(got, want) {
		t.Fatalf("4-shard trace under GOMAXPROCS=1 diverged from the one-shard trace (%d vs %d bytes)", len(got), len(want))
	}
}
