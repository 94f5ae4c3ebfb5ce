package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/acm"
	"repro/internal/core"
)

// eraClock collects the host-time stamps of one run.  Each Fractions call
// of the policy marks one control era; the stamp is taken on the control
// timeline, at an epoch barrier, where no shard loop runs.
type eraClock struct {
	last   time.Time
	eras   []time.Duration // host time from the previous era (or the run start) to this one
	policy time.Duration   // host time inside the wrapped policy

	// heap, when set, collects garbage at every era and records the largest
	// /gc/heap/live:bytes seen, so the value is the exact live heap at the
	// era boundary rather than whatever the last concurrent cycle marked.
	// It slows the run, so only the warm-up run sets it.
	heap     bool
	peakLive uint64
	live     []metrics.Sample

	// depth, when set, samples the mean event-queue depth per engine lane
	// at each era (traced runs only).
	depth     func() float64
	depthSum  float64
	depthSeen int
}

func newEraClock() *eraClock {
	return &eraClock{live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// start marks the beginning of the run.
func (c *eraClock) start(now time.Time) { c.last = now }

func (c *eraClock) stamp() {
	now := time.Now()
	c.eras = append(c.eras, now.Sub(c.last))
	c.last = now
	if c.heap {
		runtime.GC()
		metrics.Read(c.live)
		if c.live[0].Value.Kind() == metrics.KindUint64 {
			c.peakLive = max(c.peakLive, c.live[0].Value.Uint64())
		}
	}
	if c.depth != nil {
		c.depthSum += c.depth()
		c.depthSeen++
	}
}

// clockedPolicy wraps a policy and stamps the era clock at every Fractions
// call.  It implements core.PolicyCloner so that the backend's clone of it
// carries a fresh copy of a stateful inner policy (Exploration's jitter
// stream starts where it would without the wrapper) while still sharing the
// clock the benchmark reads.
type clockedPolicy struct {
	inner core.Policy
	clock *eraClock
}

func (p *clockedPolicy) Name() string { return p.inner.Name() }

func (p *clockedPolicy) Fractions(in core.PolicyInput) ([]float64, error) {
	p.clock.stamp()
	t := time.Now()
	f, err := p.inner.Fractions(in)
	p.clock.policy += time.Since(t)
	return f, err
}

func (p *clockedPolicy) ClonePolicy() core.Policy {
	return &clockedPolicy{inner: core.ClonePolicy(p.inner), clock: p.clock}
}

// queueDepth returns a sampler of the mean pending-event count per engine
// lane of the deployment: the single queue of the serial engine, or every
// shard sub-engine plus the control timeline of the sharded one.
func queueDepth(m *acm.Manager) func() float64 {
	return func() float64 {
		total, lanes := m.Engine().Pending(), 1
		for _, r := range m.Regions() {
			for s := 0; s < r.NumShards(); s++ {
				if e := r.ShardEngine(s); e != nil {
					total += e.Pending()
					lanes++
				}
			}
		}
		return float64(total) / float64(lanes)
	}
}
