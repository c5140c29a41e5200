package experiment

import (
	"maps"
	"time"

	"rfd/bgp"
	"rfd/metrics"
)

// newPartial returns an empty Result for one shard to record into, sized for
// routers update receivers.
func newPartial(sc Scenario, origin bgp.RouterID, routers int) *Result {
	res := &Result{
		Pulses:             sc.Pulses,
		Origin:             origin,
		ISP:                bgp.RouterID(sc.ISP),
		Updates:            &metrics.EventSeries{},
		Damped:             &metrics.StepSeries{},
		NoisyReuseTimes:    &metrics.EventSeries{},
		PenaltyTraces:      make(map[PenaltyWatch]*metrics.FloatSeries, len(sc.Watch)),
		LastUpdateByRouter: make(map[bgp.RouterID]time.Duration, routers),
	}
	for _, w := range sc.Watch {
		res.PenaltyTraces[w] = &metrics.FloatSeries{}
	}
	return res
}

// recordHooks returns the live hooks that record one shard's events into
// its partial Result on the flap-relative clock (zero at epoch). The damped
// count is a running ±1 over suppression flips: damping state was reset at
// the epoch, so it starts at zero, and a router crash reports every
// suppressed state it discards.
func (res *Result) recordHooks(sc Scenario, epoch time.Duration) bgp.Hooks {
	damped := 0
	hooks := bgp.Hooks{
		OnDeliver: func(at time.Duration, msg bgp.Message) {
			res.Updates.Record(at - epoch)
			res.LastUpdateByRouter[msg.To] = at - epoch
		},
		OnSuppress: func(at time.Duration, router, peer bgp.RouterID, _ bgp.Prefix, on bool) {
			if on {
				damped++
				if router == res.ISP && peer == res.Origin {
					res.OriginSuppressed = true
				}
			} else {
				damped--
			}
			res.Damped.Record(at-epoch, damped)
		},
		OnReuse: func(at time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, noisy bool) {
			if noisy {
				res.NoisyReuses++
				res.NoisyReuseTimes.Record(at - epoch)
			} else {
				res.SilentReuses++
			}
		},
	}
	if len(sc.Watch) > 0 {
		hooks.OnPenalty = func(at time.Duration, router, peer bgp.RouterID, _ bgp.Prefix, penalty float64) {
			if tr, ok := res.PenaltyTraces[PenaltyWatch{Router: router, Peer: peer}]; ok {
				tr.Record(at-epoch, penalty)
			}
		}
	}
	return hooks
}

// mergePartials joins the shards' partial Results into the first one: event
// times are merge-sorted, the per-shard damped step series are summed at
// every change point, and the counters and per-router maps are combined
// (every router, and so every watched damping state, lives on exactly one
// shard). With one shard the partial is the Result.
func mergePartials(parts []*Result) *Result {
	res := parts[0]
	if len(parts) == 1 {
		return res
	}
	updates := make([]*metrics.EventSeries, len(parts))
	noisy := make([]*metrics.EventSeries, len(parts))
	damped := make([]*metrics.StepSeries, len(parts))
	for s, p := range parts {
		updates[s], noisy[s], damped[s] = p.Updates, p.NoisyReuseTimes, p.Damped
		if s == 0 {
			continue
		}
		res.NoisyReuses += p.NoisyReuses
		res.SilentReuses += p.SilentReuses
		res.OriginSuppressed = res.OriginSuppressed || p.OriginSuppressed
		maps.Copy(res.LastUpdateByRouter, p.LastUpdateByRouter)
		for w, tr := range p.PenaltyTraces {
			if tr.Len() > 0 {
				res.PenaltyTraces[w] = tr
			}
		}
	}
	res.Updates = metrics.MergeEvents(updates...)
	res.NoisyReuseTimes = metrics.MergeEvents(noisy...)
	res.Damped = metrics.SumSteps(damped...)
	return res
}
