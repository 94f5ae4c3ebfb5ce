package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/acm"
	"repro/internal/cloudsim"
	"repro/internal/experiment"
	"repro/internal/features"
	"repro/internal/gslb"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// The per-layer numbers of the traced run.  Counts come from public
// accessors after the run.  Costs per call come from timing each layer's hot
// public function from this file, on state taken from the traced run's own
// deployment (its final state, its queue depth, its region pairs and
// tables); nothing inside the program is instrumented.

// Package-level sinks keep the compiler from dropping timed calls.
var (
	sinkVector      features.Vector
	sinkInteraction workload.Interaction
	sinkFloat       float64
	sinkInt         int
)

// perCall times n calls of fn and returns the host nanoseconds and heap
// bytes allocated per call.
func perCall(n int, fn func(i int)) (ns, bytes float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// layerCounts are the traced run's totals over every policy of the workload.
type layerCounts struct {
	events, epochs, posts                 float64
	utilMin, utilMean                     float64
	submits, rejuvenations, crashes       float64
	vms, dropped, issued, timeouts, done  float64
	eras, forwarded, routed, probes       float64
	traces, samples, picks, cohortTicks   float64
	wallNs, policyNs, depth, depthSamples float64
	gcCycles, gcPauseMs, gcCPU, totalCPU  float64
	ticksByRegion                         map[string]float64
	sharded                               bool
	utilSeen                              int
	horizonS, lanes                       float64
}

func countLayers(tr *run) layerCounts {
	c := layerCounts{utilMin: math.Inf(1), ticksByRegion: map[string]float64{}}
	for _, p := range tr.policies {
		m := p.sim.Manager()
		res := p.sim.Results()
		met := p.sim.Metrics()
		c.wallNs += float64(p.wall.Nanoseconds())
		c.policyNs += float64(p.clock.policy.Nanoseconds())
		c.depth += p.clock.depthSum
		c.depthSamples += float64(p.clock.depthSeen)
		c.gcCycles += float64(p.gcCycles)
		c.gcPauseMs += p.gcPause.Seconds() * 1e3
		c.gcCPU += p.gcCPU
		c.totalCPU += p.totalCPU
		c.horizonS += p.scenario.Horizon.Seconds()

		if fr := m.FlightRecorder(); fr != nil {
			c.sharded = true
			c.epochs += float64(fr.EpochCount())
			util := fr.Utilization()
			for i, u := range util {
				c.events += float64(u.Fired)
				c.posts += float64(u.Drained)
				if i == len(util)-1 {
					continue // the control timeline is not a shard
				}
				c.utilMin = math.Min(c.utilMin, u.Utilization())
				c.utilMean += u.Utilization()
				c.utilSeen++
			}
			c.lanes = float64(len(util) - 1)
		} else {
			c.events += float64(m.Engine().Fired())
			c.lanes = float64(len(m.Regions()))
		}

		c.submits += float64(res.LocalRequests + res.ForwardedRequests)
		for _, s := range res.VMCStats {
			c.rejuvenations += float64(s.ProactiveRejuvenations)
		}
		for _, s := range res.RegionStats {
			c.crashes += float64(s.Crashes)
			c.vms += float64(s.VMs)
			c.dropped += float64(s.Dropped)
		}
		for _, name := range res.RegionNames {
			ticks := float64(res.VMCStats[name].ControlTicks)
			c.ticksByRegion[name] += ticks
			active := p.sim.Recorder().Series("active_vms", name).Values()
			c.samples += ticks * stats.Mean(active)
		}
		c.issued += float64(met.Issued(""))
		c.timeouts += float64(met.Timeouts(""))
		c.done += float64(met.Completed(""))
		c.picks += float64(met.ResponseSamples(""))
		c.eras += float64(res.Eras)
		c.forwarded += float64(res.ForwardedRequests)
		if g := res.GSLB; g != nil {
			for _, n := range g.Routed {
				c.routed += float64(n)
				c.submits += float64(n)
			}
			c.probes += float64(g.Probes)
		}
		if t := m.Tracer(); t != nil {
			c.traces += float64(t.Len())
		}
		c.cohortTicks += cohortLanes(p.scenario) * p.scenario.Horizon.Seconds() / cohortTick(p.scenario).Seconds()
	}
	if c.utilSeen > 0 {
		c.utilMean /= float64(c.utilSeen)
	} else {
		c.utilMin = 0
	}
	return c
}

// cohortLanes is the number of cohort populations the deployment runs: one
// per shard of every region with cohort clients on the sharded engine (one
// per region on the serial one), plus one per lane for director-attached
// cohorts.
func cohortLanes(sc experiment.Scenario) float64 {
	sharded := sc.EventWorkers > 0 || sc.GSLB.Enabled()
	lanes, total := 0, 0
	for _, r := range sc.Regions {
		shards := 1
		if sharded && r.Region.Shards > 1 {
			shards = r.Region.Shards
		}
		total += shards
		if r.CohortClients > 0 {
			lanes += shards
		}
	}
	if sc.CohortClients > 0 {
		lanes += total
	}
	return float64(lanes)
}

// cohortSize is the client count of one cohort population of the
// deployment, or the whole client count when it runs no cohorts.
func cohortSize(sc experiment.Scenario) int {
	if n := cohortLanes(sc); n > 0 {
		total := sc.CohortClients
		for _, r := range sc.Regions {
			total += r.CohortClients
		}
		return int(float64(total) / n)
	}
	return sc.EffectiveClients()
}

func cohortTick(sc experiment.Scenario) simclock.Duration {
	if sc.CohortTick > 0 {
		return sc.CohortTick
	}
	return simclock.Second
}

func layerMetrics(seed uint64, tr *run, runS, newBackendMs float64) map[string]value {
	c := countLayers(tr)
	last := tr.policies[len(tr.policies)-1]
	m := last.sim.Manager()
	sc := last.scenario

	depth := 1.0
	if c.depthSamples > 0 {
		depth = math.Max(1, c.depth/c.depthSamples)
	}
	schedNs := benchSchedPop(seed, int(math.Round(depth)))

	epoch := sc.EventEpoch
	if epoch <= 0 {
		epoch = simclock.DefaultEpoch
	}
	// Posts per epoch as the deployment made them; on the serial engine, the
	// forwards it would post if it ran on epochs.
	perEpoch := c.forwarded / (c.horizonS / epoch.Seconds())
	if c.sharded && c.epochs > 0 {
		perEpoch = c.posts / c.epochs
	}
	postNs := benchPostDrain(seed, int(c.lanes), epoch, int(math.Max(1, math.Round(perEpoch))))

	sampleNs, sampleBytes := benchSample(m)
	tickUs := benchTicks(m)
	submitNs := benchSubmit(m)
	latencyNs := benchLatency(m)
	routeNs := benchRoute(m, seed)
	pickNs, pickBytes := benchPick(sc, seed)
	cohortUs := benchCohortTick(sc, seed)
	spanNs := benchSpan(seed)

	var tickNs, ticks float64
	for region, n := range c.ticksByRegion {
		tickNs += n * tickUs[region] * 1e3
		ticks += n
	}
	tickMeanUs := 0.0
	if ticks > 0 {
		tickMeanUs = tickNs / ticks / 1e3
	}
	policyUs := 0.0
	if c.eras > 0 {
		policyUs = c.policyNs / c.eras / 1e3
	}
	wall := c.wallNs
	share := func(ns float64) float64 { return math.Max(0, ns) / wall }

	gcFrac := 0.0
	if c.totalCPU > 0 {
		gcFrac = c.gcCPU / c.totalCPU
	}
	out := map[string]value{}
	put := func(name string, v float64) {
		d, _ := metricByName(name)
		out[name] = value{Value: v, Unit: d.unit}
	}
	put("simclock.events", c.events)
	put("simclock.epochs", c.epochs)
	put("simclock.mailbox_posts", c.posts)
	put("simclock.shard_util_min", c.utilMin)
	put("simclock.shard_util_mean", c.utilMean)
	put("pcam.submits", c.submits)
	put("pcam.rejuvenations", c.rejuvenations)
	put("pcam.proactive_ratio", ratio(c.rejuvenations, c.rejuvenations+c.crashes))
	put("cloudsim.vms", c.vms)
	put("cloudsim.dropped", c.dropped)
	put("workload.issued", c.issued)
	put("workload.timeouts", c.timeouts)
	put("workload.success_ratio", ratio(c.done, c.issued))
	put("acm.eras", c.eras)
	put("acm.forwarded", c.forwarded)
	put("gslb.routed", c.routed)
	put("gslb.probes", c.probes)
	put("tracing.traces", c.traces)

	put("simclock.sched_pop_ns", schedNs)
	put("simclock.post_drain_ns", postNs)
	put("cloudsim.sample_ns", sampleNs)
	put("cloudsim.sample_bytes", sampleBytes)
	put("pcam.tick_us", tickMeanUs)
	put("pcam.submit_ns", submitNs)
	put("overlay.latency_ns", latencyNs)
	put("gslb.route_ns", routeNs)
	put("workload.pick_ns", pickNs)
	put("workload.pick_bytes", pickBytes)
	put("workload.cohort_tick_us", cohortUs)
	put("tracing.span_ns", spanNs)
	put("core.policy_us", policyUs)
	put("backend.new_ms", newBackendMs)

	// The control tick samples every ACTIVE VM, so its share excludes the
	// sampling that cloudsim.share already counts.
	put("simclock.share", share(c.events*schedNs+c.posts*postNs))
	put("cloudsim.share", share(c.samples*sampleNs))
	put("pcam.share", share(tickNs-c.samples*sampleNs+c.submits*submitNs))
	put("overlay.share", share(c.forwarded*latencyNs))
	put("gslb.share", share(c.routed*routeNs))
	put("workload.share", share(c.picks*pickNs+c.cohortTicks*cohortUs*1e3))
	put("tracing.share", share(c.traces*spanNs))
	put("core.share", share(c.policyNs))

	put("runtime.gc_cycles", c.gcCycles)
	put("runtime.gc_cpu_frac", gcFrac)
	put("runtime.gc_pause_ms", c.gcPauseMs)
	put("bench.trace_overhead_pct", (c.wallNs/1e9-runS)/runS*100)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// benchSchedPop times ScheduleAt + Step on an engine holding depth pending
// events, so the heap works at the deployment's observed queue depth.
func benchSchedPop(seed uint64, depth int) float64 {
	eng := simclock.NewEngine(seed)
	rng := simclock.NewRNG(seed)
	offsets := make([]simclock.Duration, 4096)
	for i := range offsets {
		offsets[i] = simclock.Duration(rng.Exp(1))
	}
	ev := simclock.EventFunc(func(*simclock.Engine) {})
	for i := 0; i < depth; i++ {
		eng.ScheduleAt(eng.Now().Add(offsets[i%len(offsets)]), ev)
	}
	ns, _ := perCall(300_000, func(i int) {
		eng.ScheduleAt(eng.Now().Add(offsets[i%len(offsets)]), ev)
		eng.Step()
	})
	return ns
}

// benchPostDrain times ShardedEngine.Post plus the epoch barrier that drains
// it, at the deployment's lane count and posts per epoch.
func benchPostDrain(seed uint64, lanes int, epoch simclock.Duration, perEpoch int) float64 {
	if lanes < 1 {
		lanes = 1
	}
	se := simclock.NewShardedEngine(lanes, seed, epoch, 1)
	fn := func(*simclock.Engine) {}
	epochs := 200_000 / perEpoch
	if epochs < 200 {
		epochs = 200
	}
	runtime.GC()
	t := time.Now()
	for e := 0; e < epochs; e++ {
		for k := 0; k < perEpoch; k++ {
			se.Post(se.Shard(k%lanes), (k+1)%lanes, fn)
		}
		// Run reports only whether events remain past the horizon; the posts
		// are drained at the barrier either way.
		_ = se.Run(simclock.Duration(se.Now()) + epoch)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(epochs*perEpoch)
}

// benchSample times VM.Sample over the deployment's ACTIVE VMs.
func benchSample(m *acm.Manager) (ns, bytes float64) {
	var vms []*cloudsim.VM
	for _, r := range m.Regions() {
		vms = append(vms, r.ActiveVMs()...)
	}
	if len(vms) == 0 {
		return 0, 0
	}
	now := m.Engine().Now()
	return perCall(50_000, func(i int) { sinkVector = vms[i%len(vms)].Sample(now) })
}

// benchTicks times VMC.ControlTick of every region's controller and returns
// microseconds per tick by region.
func benchTicks(m *acm.Manager) map[string]float64 {
	out := map[string]float64{}
	eng := m.Engine()
	for _, name := range m.RegionNames() {
		vmc := m.VMC(name)
		runtime.GC()
		n := 0
		t := time.Now()
		for n < 3 || (n < 2000 && time.Since(t) < 20*time.Millisecond) {
			vmc.ControlTick(eng)
			n++
		}
		out[name] = float64(time.Since(t).Nanoseconds()) / float64(n) / 1e3
	}
	return out
}

// benchSubmit times the regions' load balancers, VMC.SubmitShard on the
// sharded engine or VMC.Submit on the serial one, spreading requests over
// every region shard.
func benchSubmit(m *acm.Manager) float64 {
	type target struct {
		vmc   func(*cloudsim.Request)
		entry string
	}
	var targets []target
	for _, r := range m.Regions() {
		vmc := m.VMC(r.Name())
		if !vmc.Sharded() {
			eng := m.Engine()
			targets = append(targets, target{vmc: func(req *cloudsim.Request) { vmc.Submit(eng, req) }, entry: r.Name()})
			continue
		}
		for s := 0; s < r.NumShards(); s++ {
			s, eng := s, r.ShardEngine(s)
			targets = append(targets, target{vmc: func(req *cloudsim.Request) { vmc.SubmitShard(eng, s, req) }, entry: r.Name()})
		}
	}
	const n = 20_000
	now := m.Engine().Now()
	reqs := make([]*cloudsim.Request, n)
	for i := range reqs {
		reqs[i] = &cloudsim.Request{ID: uint64(i + 1), Class: "home", ServiceFactor: 1, EntryRegion: targets[i%len(targets)].entry, Arrival: now}
	}
	ns, _ := perCall(n, func(i int) { targets[i%len(targets)].vmc(reqs[i]) })
	return ns
}

// benchLatency times overlay Network.Latency over every ordered pair of the
// workload's regions.  A one-region deployment has no pair and makes no
// call, so it times the paper overlay's pairs instead.
func benchLatency(m *acm.Manager) float64 {
	net, nodes := m.Overlay(), m.RegionNames()
	if len(nodes) < 2 {
		net = overlay.PaperOverlay()
		nodes = net.Nodes()
	}
	var pairs [][2]string
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	ns, _ := perCall(50_000, func(i int) {
		p := pairs[i%len(pairs)]
		sinkFloat = net.Latency(p[0], p[1])
	})
	return ns
}

// benchRoute times Table.RouteStream on the director's final table, or, for
// a deployment without a director, on a least-load table over its regions.
func benchRoute(m *acm.Manager, seed uint64) float64 {
	streams := 1
	var table *gslb.Table
	if d := m.Director(); d != nil {
		table = d.Table()
		streams = len(d.Streams())
	} else {
		health := make([]gslb.Health, len(m.Regions()))
		pref := make([]int, len(health))
		for i := range health {
			health[i], pref[i] = gslb.NewHealth(), i
		}
		table = gslb.BuildTable(gslb.Config{Policy: gslb.PolicyLeastLoad}.WithDefaults(), pref, health)
	}
	if streams < 1 {
		streams = 1
	}
	rng := simclock.NewRNG(seed)
	var rr uint64
	ns, _ := perCall(200_000, func(i int) { sinkInt = table.RouteStream(i%streams, rng, &rr) })
	return ns
}

// benchPick times Mix.Pick on the workload's interaction mix.
func benchPick(sc experiment.Scenario, seed uint64) (ns, bytes float64) {
	mix := workload.BrowsingMix()
	if len(sc.Regions) > 0 && sc.Regions[0].Mix.Name != "" {
		mix = sc.Regions[0].Mix
	}
	rng := simclock.NewRNG(seed)
	return perCall(200_000, func(int) { sinkInteraction = mix.Pick(rng) })
}

// benchCohortTick times the cohort tick of one population the size of one of
// the deployment's cohorts, against a dispatcher that completes every batch
// at once.
func benchCohortTick(sc experiment.Scenario, seed uint64) float64 {
	eng := simclock.NewEngine(seed)
	done := workload.DispatcherFunc(func(e *simclock.Engine, req *cloudsim.Request) {
		req.Finish(e, cloudsim.Outcome{Request: req, Region: "bench", Start: e.Now(), End: e.Now()})
	})
	tick := cohortTick(sc)
	c := workload.NewCohortPopulation(workload.CohortConfig{
		Region:        "bench",
		Clients:       cohortSize(sc),
		Mix:           workload.BrowsingMix(),
		ThinkTimeMean: sc.ThinkTime,
		Tick:          tick,
		MaxBatch:      sc.CohortMaxBatch,
		Seed:          seed,
	}, done, nil)
	c.Start(eng)
	const ticks = 2000
	runtime.GC()
	t := time.Now()
	_ = eng.Run(simclock.Duration(ticks) * tick) // the tick loop never drains, so the horizon always cuts it
	return float64(time.Since(t).Nanoseconds()) / ticks / 1e3
}

// benchSpan times one sampled trace's Tracer.Start, one Span and Seal.
func benchSpan(seed uint64) float64 {
	tr := tracing.NewTracer(seed, 1)
	at := simclock.Time(1)
	ns, _ := perCall(20_000, func(i int) {
		rt := tr.Start("bench", uint64(i+1), 1, at)
		rt.Span(tracing.SpanForward, at, 0.01, "")
		rt.Seal(tracing.OutcomeOK, at, at+0.05, "vm", "region")
	})
	return ns
}
