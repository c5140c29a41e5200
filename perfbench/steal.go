package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Steal correction. On a shared virtual machine the hypervisor takes the
// vCPUs away for stretches (reported as "steal" time), which stretches
// every elapsed time it overlaps: on the 2-vCPU host these workloads were
// tuned on, steal reached a third of each vCPU-second for minutes at a time
// and the wall time of a run followed it (correlation 0.91-0.97 over 80
// runs). Elapsed times are therefore reported less the steal time the
// kernel accounted during them, averaged over the vCPUs; on a host that
// never steals the correction is zero. CPU times are reported as the
// kernel charges them, uncorrected.

// stolen returns the host's steal time so far, summed over all vCPUs, in
// seconds (0 when /proc/stat cannot be read).
func stolen() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// interval times one span of work.
type interval struct {
	start time.Time
	steal float64
}

func startInterval() interval { return interval{time.Now(), stolen()} }

// stop returns the elapsed seconds less the steal time per vCPU that fell
// inside the interval.
func (iv interval) stop() float64 {
	perCPU := (stolen() - iv.steal) / float64(runtime.NumCPU())
	return max(time.Since(iv.start).Seconds()-perCPU, 0)
}

// series collects a run's repetitions: set-up samples, wall, CPU and peak
// RSS.
type series struct {
	setup, wall, cpu, rss []float64
}

// add records one repetition; rss holds the peak RSS of each process it
// ran.
func (s *series) add(wall, cpu float64, rss ...float64) {
	s.wall = append(s.wall, wall)
	s.cpu = append(s.cpu, cpu)
	s.rss = append(s.rss, rss...)
}

// report sets the end-to-end metrics (medians) and the repetition count,
// which goes on a comment line.
func (s *series) report(out *outcome) {
	m := out.metrics
	m["setup_s"], m["wall_s"], m["cpu_s"], m["peak_rss_mb"] = median(s.setup), median(s.wall), median(s.cpu), median(s.rss)
	m["repetitions"] = float64(len(s.wall))
}
