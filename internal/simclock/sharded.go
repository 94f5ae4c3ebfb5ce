package simclock

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel event loop: a ShardedEngine promotes each engine
// shard to its own sub-Engine with a private event queue and RNG stream, and
// runs the N shard loops on goroutines in lockstep epochs.
//
// Events that stay shard-local (an arrival dispatched to a VM of the shard,
// its service start, its completion, a rejuvenation timer of a shard-owned
// VM) execute fully in parallel: each shard's loop pops its own queue in
// (time, seq) order exactly like a plain Engine, and because shards own
// disjoint state and disjoint RNG streams, the result of an epoch is
// independent of how the shard goroutines interleave.
//
// Effects that cross shards — a standby promotion on another shard, an
// elasticity resize, a controller-ordered rejuvenation, a request forwarded
// to another region's shard, a completion travelling back to the issuing
// client's shard — must not touch the foreign shard directly.  They are
// posted to the destination shard's *mailbox* and drained at the next epoch
// barrier, where exactly one goroutine runs.  Each (source, destination)
// lane is appended by a single goroutine (the source shard's loop) and the
// barrier folds destinations in shard-index order, each destination's lanes
// in (source shard index, post sequence) order — a fixed (epoch, shard
// index, source, sequence) total order, so delivery is byte-identical for
// every worker count and every GOMAXPROCS.
//
// Alongside the shards runs one *control* timeline: an ordinary Engine whose
// events fire only at epoch barriers, serially, with exclusive access to
// every shard.  Periodic controllers (the VMC control tick, the leader's
// control era) live there: the epoch end is clamped to the next control
// event's timestamp, so control events fire at their exact scheduled times —
// only cross-shard mailbox traffic is quantised to epoch boundaries.

const (
	// DefaultEpoch is the lockstep epoch width used when none is configured:
	// long enough to amortise the barrier, short enough that mailbox-deferred
	// cross-shard effects stay small against the think times and control
	// intervals of the simulated system.
	DefaultEpoch = 100 * Millisecond
)

// post is one deferred cross-shard effect.
type post struct {
	fn func(*Engine)
}

// ShardedEngine coordinates N sub-engines plus a control timeline.
type ShardedEngine struct {
	shards  []*Engine
	control *Engine
	epoch   Duration
	workers int
	now     Time

	// outbox[src][dst] is the mailbox lane src appends to for dst.  src and
	// dst range over the shards plus the control lane (index len(shards)).
	// During a shard phase, lane [src][*] is appended only by shard src's
	// goroutine; at the barrier exactly one goroutine drains and appends.
	outbox [][][]post

	// inShardPhase is set while the shard loops run on goroutines; together
	// with each sub-engine's executing flag it powers the cross-shard
	// scheduling guard in Engine.ScheduleAt.
	inShardPhase atomic.Bool

	drainedPosts uint64

	// flight, when set, records per-epoch per-shard accounting at each
	// barrier (flight.go).  Reads and writes happen only in the barrier
	// context, so the recorder needs no synchronisation.
	flight *FlightRecorder
}

// NewShardedEngine builds n sub-engines with RNG streams derived from seed
// (shard i gets DeriveSeed(seed, i); the control engine gets DeriveSeed(seed,
// n)), a lockstep epoch width (DefaultEpoch when epoch <= 0) and a worker
// count for the shard phase (GOMAXPROCS when workers <= 0; 1 runs the shard
// loops inline — the same epochal semantics with zero goroutines).
func NewShardedEngine(n int, seed uint64, epoch Duration, workers int) *ShardedEngine {
	if n <= 0 {
		panic("simclock: ShardedEngine needs at least one shard")
	}
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	se := &ShardedEngine{epoch: epoch, workers: workers}
	se.shards = make([]*Engine, n)
	for i := range se.shards {
		se.shards[i] = NewEngine(DeriveSeed(seed, uint64(i)))
		se.shards[i].shardIndex = i
		se.shards[i].cluster = se
	}
	se.control = NewEngine(DeriveSeed(seed, uint64(n)))
	se.control.shardIndex = n
	se.control.cluster = se
	lanes := n + 1
	se.outbox = make([][][]post, lanes)
	for i := range se.outbox {
		se.outbox[i] = make([][]post, lanes)
	}
	return se
}

// NumShards returns the number of sub-engines (the control timeline not
// included).
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard returns the i-th sub-engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Control returns the control timeline: events scheduled here fire at epoch
// barriers — at their exact timestamps — with exclusive access to all shards.
func (se *ShardedEngine) Control() *Engine { return se.control }

// Now returns the lockstep simulated time (the end of the last completed
// epoch).
func (se *ShardedEngine) Now() Time { return se.now }

// Epoch returns the configured epoch width.
func (se *ShardedEngine) Epoch() Duration { return se.epoch }

// DrainedPosts returns the number of mailbox posts delivered so far.
func (se *ShardedEngine) DrainedPosts() uint64 { return se.drainedPosts }

// SetFlightRecorder attaches a flight recorder; Run then records every
// epoch's per-shard fired/busy/idle accounting and every barrier's mailbox
// deliveries into it.  Attach before Run; nil detaches.
func (se *ShardedEngine) SetFlightRecorder(fr *FlightRecorder) { se.flight = fr }

// FlightRecorder returns the attached flight recorder (nil when none).
func (se *ShardedEngine) FlightRecorder() *FlightRecorder { return se.flight }

// Fired returns the total number of events executed across the shards and
// the control timeline.
func (se *ShardedEngine) Fired() uint64 {
	total := se.control.Fired()
	for _, sh := range se.shards {
		total += sh.Fired()
	}
	return total
}

// LaneOf returns the mailbox lane index of an engine owned by this
// ShardedEngine: the shard index for a sub-engine, NumShards() for the
// control timeline.  It panics for a foreign engine — posting on behalf of
// an engine outside the cluster would break the single-writer lane contract.
func (se *ShardedEngine) LaneOf(e *Engine) int {
	if e == nil || e.cluster != se {
		panic("simclock: LaneOf on an engine not owned by this ShardedEngine")
	}
	return e.shardIndex
}

// Post defers fn to the next epoch barrier, where it runs with the dst
// shard's engine (dst == NumShards() addresses the control timeline).  from
// must be the engine whose event handler (or barrier context) is calling —
// it identifies the source lane, which is what makes posting lock-free
// during the shard phase and delivery order deterministic: the barrier
// visits destinations in shard-index order and drains each destination's
// lanes in (source shard index, post sequence) order.
func (se *ShardedEngine) Post(from *Engine, dst int, fn func(*Engine)) {
	if dst < 0 || dst > len(se.shards) {
		panic(fmt.Sprintf("simclock: Post to unknown shard %d (have %d shards + control)", dst, len(se.shards)))
	}
	if fn == nil {
		panic("simclock: Post with nil fn")
	}
	src := se.LaneOf(from)
	se.outbox[src][dst] = append(se.outbox[src][dst], post{fn: fn})
}

// PostControl defers fn to the next epoch barrier on the control timeline,
// where it runs with the control engine and exclusive access to all shards.
func (se *ShardedEngine) PostControl(from *Engine, fn func(*Engine)) {
	se.Post(from, len(se.shards), fn)
}

// engineFor maps a lane index back to its engine.
func (se *ShardedEngine) engineFor(lane int) *Engine {
	if lane == len(se.shards) {
		return se.control
	}
	return se.shards[lane]
}

// pendingPosts reports whether any mailbox lane holds undelivered posts.
func (se *ShardedEngine) pendingPosts() bool {
	for _, row := range se.outbox {
		for _, lane := range row {
			if len(lane) > 0 {
				return true
			}
		}
	}
	return false
}

// drain delivers every mailbox post accumulated up to this barrier.  Lanes
// are folded destination-major, source-minor, preserving per-lane append
// order — the (epoch, destination shard, source shard, sequence) delivery
// order of the determinism contract.  A handler that posts again appends to
// a fresh lane:
// posts to a destination not yet folded at this barrier are delivered in the
// same pass (the fold is serial, so this stays deterministic); posts to an
// already-folded destination — the lane being drained included — wait for
// the next barrier.
//
// A drained lane keeps its backing array, cleared so the delivered closures
// can be collected, which makes steady-state posting allocation-free.  A
// lane re-posted during its own drain keeps the new slice instead.
func (se *ShardedEngine) drain() {
	lanes := len(se.shards) + 1
	for dst := 0; dst < lanes; dst++ {
		target := se.engineFor(dst)
		for src := 0; src < lanes; src++ {
			lane := se.outbox[src][dst]
			if len(lane) == 0 {
				continue
			}
			se.outbox[src][dst] = nil
			for _, p := range lane {
				p.fn(target)
				se.drainedPosts++
			}
			clear(lane)
			if se.outbox[src][dst] == nil {
				se.outbox[src][dst] = lane[:0]
			}
		}
	}
}

// shardPool is the persistent worker pool of one Run: a lockstep run crosses
// thousands of epoch barriers, so spawning fresh goroutines per epoch (as
// ForEach does) would pay the spawn cost at every barrier.  The pool's
// workers live for the whole run and pull shard indices off a channel —
// work-stealing, like ForEach — with a WaitGroup as the per-epoch barrier.
type shardPool struct {
	se   *ShardedEngine
	work chan int
	wg   sync.WaitGroup
	end  Time // epoch end; written before the sends of an epoch, read by workers after the receive
}

func newShardPool(se *ShardedEngine, workers int) *shardPool {
	p := &shardPool{se: se, work: make(chan int, len(se.shards))}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range p.work {
				p.se.shards[i].runEpoch(p.end)
				p.wg.Done()
			}
		}()
	}
	return p
}

// runEpoch fans one epoch out to the pool and blocks until every shard's
// loop has reached tEnd.
func (p *shardPool) runEpoch(tEnd Time) {
	p.end = tEnd
	p.wg.Add(len(p.se.shards))
	for i := range p.se.shards {
		p.work <- i
	}
	p.wg.Wait()
}

func (p *shardPool) close() { close(p.work) }

// Run executes the lockstep epoch loop until the horizon: each epoch runs
// every shard's local queue up to the epoch end on up to the configured
// number of goroutines (a persistent pool, spawned once per Run), then — at
// the barrier — drains the mailboxes and fires the control events that are
// due.  The epoch end is clamped to the next control event's timestamp, so
// control events never fire late.  Like Engine.Run it returns
// ErrHorizonReached when live events remain beyond the horizon, and nil when
// the system drained.
func (se *ShardedEngine) Run(horizon Duration) error {
	h := Time(horizon)
	if math.IsInf(float64(h), 1) {
		panic("simclock: ShardedEngine.Run needs a finite horizon")
	}
	workers := se.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(se.shards) {
		workers = len(se.shards)
	}
	var pool *shardPool
	if workers > 1 {
		pool = newShardPool(se, workers)
		defer pool.close()
	}
	// Flight-recorder scratch: cumulative counters sampled before each epoch
	// so the barrier can record per-epoch deltas.
	var prevFired []uint64
	var prevDrained uint64
	if se.flight != nil {
		prevFired = make([]uint64, len(se.shards)+1)
		for i, sh := range se.shards {
			prevFired[i] = sh.Fired()
		}
		prevFired[len(se.shards)] = se.control.Fired()
		prevDrained = se.drainedPosts
	}
	for se.now < h {
		tEnd := se.now.Add(se.epoch)
		if next, ok := se.control.NextEventTime(); ok && next < tEnd {
			tEnd = next
		}
		if tEnd > h {
			tEnd = h
		}

		// Shard phase: every sub-engine runs its own queue up to tEnd.  The
		// loops never touch each other's state; cross-shard effects go
		// through Post.
		se.inShardPhase.Store(true)
		if pool != nil {
			pool.runEpoch(tEnd)
		} else {
			for i := range se.shards {
				se.shards[i].runEpoch(tEnd)
			}
		}
		se.inShardPhase.Store(false)

		// Barrier: exactly one goroutine delivers the epoch's cross-shard
		// posts in (source shard, sequence) order, then fires the control
		// events due at tEnd.  The control clock advances to the barrier
		// first, so control-lane handlers observe the same Now() as the
		// shard-lane ones (every engine sits at tEnd during the drain).
		if se.control.now < tEnd {
			se.control.now = tEnd
		}
		epochStart := se.now
		se.drain()
		se.control.runEpoch(tEnd)
		if se.flight != nil {
			for i, sh := range se.shards {
				se.flight.recordEpoch(i, epochStart, tEnd, sh.LastEventAt(), sh.Fired()-prevFired[i], 0)
				prevFired[i] = sh.Fired()
			}
			ctl := len(se.shards)
			se.flight.recordEpoch(ctl, epochStart, tEnd, se.control.LastEventAt(),
				se.control.Fired()-prevFired[ctl], se.drainedPosts-prevDrained)
			prevFired[ctl] = se.control.Fired()
			prevDrained = se.drainedPosts
			se.flight.epochDone()
		}
		se.now = tEnd
	}
	for _, sh := range se.shards {
		if sh.hasLiveEvents() {
			return ErrHorizonReached
		}
	}
	if se.control.hasLiveEvents() || se.pendingPosts() {
		return ErrHorizonReached
	}
	return nil
}
