package simclock

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the engine's concurrency seam: a bounded fan-out primitive
// (ForEach) and the control-tick parallel-phase hook (Engine.ParallelPhase)
// that lets an event handler farm shard-local work out to goroutines while
// the simulated clock stands still.
//
// The engine itself stays single-threaded by design — events fire one at a
// time and the queue is never touched concurrently.  What ParallelPhase adds
// is a strictly bounded window *inside* one event during which goroutines may
// run, under a hard contract: they operate on disjoint state (one shard
// each), they may read the engine's clock, and they must not schedule events,
// consume the engine's RNG, or touch any other shard's state.  The engine
// enforces the scheduling half of that contract at runtime: Schedule /
// ScheduleAt / Ticker panic when called during a parallel phase, so a
// cross-shard mutation that reaches the event queue is caught immediately
// instead of surfacing as a nondeterministic run.  A panic on a worker
// goroutine, that guard's included, comes back to the caller (WorkerPanic).

// WorkerPanic is what a fan-out re-panics with on its calling goroutine when
// a call on one of its worker goroutines panicked.  The lowest panicking
// index wins, so the value does not depend on goroutine interleaving.  An
// inline fan-out (one worker) lets a panic through unchanged.
type WorkerPanic struct {
	Index    int  // the ForEach/ParallelPhase index, or the shard lane of ShardedEngine.Run
	Lane     bool // set by ShardedEngine.Run, with the end of the epoch the lane was running to
	EpochEnd Time
	Value    any    // the original panic value
	Stack    []byte // the worker's stack at the panic; kept out of Error, whose text is deterministic
}

// Error names the index, or the lane and epoch end, and the original value.
func (p *WorkerPanic) Error() string {
	if p.Lane {
		return fmt.Sprintf("simclock: shard lane %d panicked in the epoch ending at %v: %v", p.Index, p.EpochEnd, p.Value)
	}
	return fmt.Sprintf("simclock: fan-out index %d panicked: %v", p.Index, p.Value)
}

// Unwrap returns the original panic value when it is an error.
func (p *WorkerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// panicSlot keeps the lowest-index panic of one fan-out; read p only after
// the fan-out's barrier.
type panicSlot struct {
	mu sync.Mutex
	p  *WorkerPanic
}

// call runs fn(i), recording the panic it raises, if any.
func (s *panicSlot) call(i int, fn func(int)) {
	defer func() {
		if v := recover(); v != nil {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.p == nil || i < s.p.Index {
				s.p = &WorkerPanic{Index: i, Value: v, Stack: debug.Stack()}
			}
		}
	}()
	fn(i)
}

// ForEach runs fn(0), ..., fn(n-1) on up to workers goroutines and blocks
// until every call has returned (the barrier).  With workers <= 1 — or n <= 1
// — the calls run inline on the caller's goroutine in index order, making the
// sequential configuration a true fast path: no goroutines, no channels, no
// synchronisation.
//
// Indices are handed out through an atomic counter (work stealing), so
// workers that finish cheap indices immediately pick up the next one and an
// uneven cost distribution across indices does not serialise the phase.  fn
// must be safe to call concurrently for distinct indices.  A worker's panic
// is re-panicked here as a *WorkerPanic once every call has returned.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panics panicSlot
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				panics.call(i, fn)
			}
		}()
	}
	wg.Wait()
	if panics.p != nil {
		panic(panics.p)
	}
}

// ParallelPhase runs fn(0), ..., fn(n-1) on up to workers goroutines from
// inside an event handler and returns only when every call has completed —
// the barrier at the control-tick boundary.  The simulated clock does not
// advance and no other event fires while the phase runs, so fn may read
// e.Now() freely; scheduling events from inside the phase panics (see the
// contract above).  Results must be written to per-index state and merged by
// the caller after ParallelPhase returns, in index order, so the merged
// output is independent of goroutine scheduling.
func (e *Engine) ParallelPhase(n, workers int, fn func(i int)) {
	if e.inParallelPhase {
		panic("simclock: nested ParallelPhase")
	}
	e.inParallelPhase = true
	defer func() { e.inParallelPhase = false }()
	ForEach(n, workers, fn)
}

// InParallelPhase reports whether the engine is currently inside a
// ParallelPhase fan-out (true only on the goroutines of that phase and on the
// event handler driving it).
func (e *Engine) InParallelPhase() bool { return e.inParallelPhase }
