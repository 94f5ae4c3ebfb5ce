package cloudsim

import (
	"testing"

	"repro/internal/simclock"
)

// TestRehomeOnDoneReturnLegAndHomeLane pins the completion re-homing helper
// of the sharded event loop: whether the request completes on its home lane
// or on a foreign one, OnDone runs exactly once, on the home lane, with the
// return leg added to the outcome's End exactly once.  A foreign completion
// travels through the mailbox and is delivered at the next epoch barrier.
func TestRehomeOnDoneReturnLegAndHomeLane(t *testing.T) {
	const (
		home   = 0
		leg    = 250 * simclock.Millisecond
		doneAt = 50 * simclock.Millisecond
	)
	cases := []struct {
		name    string
		serve   int
		wantNow simclock.Time // home lane clock when OnDone runs
	}{
		{"home-lane completion", home, simclock.Time(0).Add(doneAt)},
		{"foreign-lane completion", 2, simclock.Time(0).Add(100 * simclock.Millisecond)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			se := simclock.NewShardedEngine(3, 1, 100*simclock.Millisecond, 1)
			calls := 0
			var got Outcome
			var homeNow simclock.Time
			req := &Request{ID: 1, OnDone: func(o Outcome) {
				calls++
				got = o
				homeNow = se.Shard(home).Now()
				// Scheduling on the home shard panics unless this runs on
				// the home lane or at a barrier (the cross-shard guard).
				se.Shard(home).ScheduleFunc(0, func(*simclock.Engine) {})
			}}
			req.RehomeOnDone(se, home, leg)
			se.Shard(tc.serve).ScheduleFunc(doneAt, func(e *simclock.Engine) {
				o := Outcome{Request: req, End: e.Now()}
				req.Finish(e, o)
				req.Finish(e, o) // a second completion must be a no-op
			})
			if err := se.Run(500 * simclock.Millisecond); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if calls != 1 {
				t.Fatalf("OnDone ran %d times, want 1", calls)
			}
			if want := simclock.Time(0).Add(doneAt).Add(leg); got.End != want {
				t.Fatalf("End = %v, want %v (return leg applied exactly once)", got.End, want)
			}
			if homeNow != tc.wantNow {
				t.Fatalf("OnDone ran with the home lane at %v, want %v", homeNow, tc.wantNow)
			}
		})
	}
}
