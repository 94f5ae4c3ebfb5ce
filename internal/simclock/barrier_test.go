package simclock

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEachSequentialRunsInOrder(t *testing.T) {
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential ForEach out of order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("sequential ForEach visited %d indices, want 5", len(order))
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("ForEach must not call fn for n <= 0")
	}
}

// TestParallelPhaseIsABarrier verifies that every index completes before
// ParallelPhase returns and that the engine is usable again afterwards.
func TestParallelPhaseIsABarrier(t *testing.T) {
	eng := NewEngine(1)
	var done atomic.Int32
	fired := false
	eng.ScheduleFunc(1, func(e *Engine) {
		e.ParallelPhase(32, 4, func(i int) { done.Add(1) })
		if got := done.Load(); got != 32 {
			t.Errorf("barrier leaked: %d of 32 done when ParallelPhase returned", got)
		}
		// Scheduling after the phase must work again.
		e.ScheduleFunc(1, func(*Engine) { fired = true })
	})
	eng.RunUntilEmpty()
	if !fired {
		t.Fatal("follow-up event after the parallel phase never fired")
	}
}

// TestParallelPhaseRejectsScheduling pins the shard-local mutation audit: an
// event scheduled from inside the parallel phase panics instead of racing on
// the event queue.
func TestParallelPhaseRejectsScheduling(t *testing.T) {
	eng := NewEngine(1)
	panicked := false
	eng.ScheduleFunc(1, func(e *Engine) {
		// workers=1 keeps the violating call on this goroutine so the deferred
		// recover below observes the panic deterministically.
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.ParallelPhase(1, 1, func(int) {
			e.ScheduleFunc(1, func(*Engine) {})
		})
	})
	eng.RunUntilEmpty()
	if !panicked {
		t.Fatal("Schedule inside ParallelPhase must panic")
	}
	if eng.InParallelPhase() {
		t.Fatal("engine still marked in parallel phase after the panic unwound")
	}
}

func TestParallelPhaseRejectsNesting(t *testing.T) {
	eng := NewEngine(1)
	panicked := false
	eng.ScheduleFunc(1, func(e *Engine) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.ParallelPhase(1, 1, func(int) {
			e.ParallelPhase(1, 1, func(int) {})
		})
	})
	eng.RunUntilEmpty()
	if !panicked {
		t.Fatal("nested ParallelPhase must panic")
	}
}

// TestParallelPhaseWorkerPanicReachesCaller pins panic containment in the
// fan-out: the scheduling guard firing on a worker goroutine comes back to
// the event handler as a *WorkerPanic naming the lowest panicking index,
// after every call has run, instead of killing the process from the worker.
func TestParallelPhaseWorkerPanicReachesCaller(t *testing.T) {
	eng := NewEngine(1)
	var ran atomic.Int32
	var recovered any
	eng.ScheduleFunc(1, func(e *Engine) {
		defer func() { recovered = recover() }()
		e.ParallelPhase(8, 4, func(i int) {
			ran.Add(1)
			if i == 5 || i == 7 {
				e.ScheduleFunc(1, func(*Engine) {})
			}
		})
	})
	eng.RunUntilEmpty()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *WorkerPanic", recovered, recovered)
	}
	if wp.Index != 5 || wp.Lane {
		t.Fatalf("WorkerPanic index %d lane %v, want fan-out index 5", wp.Index, wp.Lane)
	}
	if msg := wp.Error(); !strings.Contains(msg, "index 5") || !strings.Contains(msg, "Schedule during a parallel phase") {
		t.Fatalf("WorkerPanic message %q does not name the index and the guard", msg)
	}
	if len(wp.Stack) == 0 {
		t.Fatal("WorkerPanic carries no worker stack")
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("%d of 8 calls ran before the re-panic, want all", got)
	}
	if eng.InParallelPhase() {
		t.Fatal("engine still marked in parallel phase after the panic unwound")
	}
}

// TestForEachWorkerPanicUnwraps checks that a worker's error panic stays
// reachable through errors.Is on the re-panicked value.
func TestForEachWorkerPanicUnwraps(t *testing.T) {
	boom := errors.New("boom")
	defer func() {
		wp, ok := recover().(*WorkerPanic)
		if !ok || wp.Index != 3 || !errors.Is(wp, boom) {
			t.Fatalf("recovered %#v, want a *WorkerPanic at index 3 wrapping %v", wp, boom)
		}
	}()
	ForEach(6, 3, func(i int) {
		if i == 3 {
			panic(boom)
		}
	})
	t.Fatal("ForEach returned despite a worker panic")
}
