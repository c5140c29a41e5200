package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0), printed on every
// workload. BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1), printed on every
// workload; a layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"eventq.push_pop_ns", "ns"},
	{"sim.events", "count"},
	{"sim.pending_max", "count"},
	{"sim.run_s", "s"},
	{"sim.events_per_s", "1/s"},
	{"damping.penalty_updates", "count"},
	{"damping.suppressions", "count"},
	{"damping.reuses_noisy", "count"},
	{"damping.reuses_silent", "count"},
	{"damping.update_ns", "ns"},
	{"bgp.delivered", "count"},
	{"bgp.construct_s", "s"},
	{"bgp.fork_ms", "ms"},
	{"bgp.damped_link_count_ns", "ns"},
	{"bgp.damped_link_count_calls", "count"},
	{"bgp.damped_scan_s", "s"},
	{"shard.epochs", "count"},
	{"shard.parallelism", "ratio"},
	{"shard.injected", "count"},
	{"shard.events_per_epoch", "count"},
	{"shard.run_s", "s"},
	{"experiment.converge_s", "s"},
	{"experiment.point_s", "s"},
	{"experiment.points_live", "count"},
	{"experiment.allocs_per_run", "count"},
	{"experiment.bytes_per_run", "B"},
	{"experiment.conv_s", "s"},
	{"experiment.msgs", "count"},
	{"runcache.hits", "count"},
	{"runcache.misses", "count"},
	{"runcache.uncacheable", "count"},
	{"runcache.hit_ratio", "ratio"},
	{"pool.hits", "count"},
	{"pool.misses", "count"},
	{"pool.evictions", "count"},
	{"pool.hit_ratio", "ratio"},
	{"pool.get_ms", "ms"},
	{"diskcache.loads", "count"},
	{"diskcache.stores", "count"},
	{"diskcache.load_ms", "ms"},
	{"diskcache.store_ms", "ms"},
	{"rfdd.req_per_s", "1/s"},
	{"rfdd.cold_p50_ms", "ms"},
	{"rfdd.cold_p90_ms", "ms"},
	{"rfdd.cold_n", "count"},
	{"rfdd.pooled_p50_ms", "ms"},
	{"rfdd.pooled_p90_ms", "ms"},
	{"rfdd.pooled_n", "count"},
	{"rfdd.warm_p50_ms", "ms"},
	{"rfdd.warm_p99_ms", "ms"},
	{"rfdd.warm_n", "count"},
	{"rfdd.disk_p50_ms", "ms"},
	{"rfdd.disk_p90_ms", "ms"},
	{"rfdd.disk_n", "count"},
	{"rfdd.overhead_ms", "ms"},
	{"rfdd.rejected", "count"},
	{"rfdd.stream_first_event_ms", "ms"},
	{"rfdd.drain_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.self_sum_share", "ratio"},
	{"self.topology_s", "s"},
	{"self.bgp_s", "s"},
	{"self.sim_s", "s"},
	{"self.shard_s", "s"},
	{"self.experiment_s", "s"},
	{"self.runcache_s", "s"},
	{"self.pool_s", "s"},
	{"self.diskcache_s", "s"},
	{"self.rfdd_s", "s"},
	{"self.bench_s", "s"},
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is how
// the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// cpuOf is a process's user+system CPU time from its rusage.
func cpuOf(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// selfCPU is this process's user+system CPU so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuOf(&ru)
}

// rssMB converts a Linux ru_maxrss (KiB) to MB.
func rssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }
