// Event-loop-per-shard support for the VMC: a deployment runs on a
// simclock.ShardedEngine, where every region shard owns a private sub-engine
// and services its arrivals, completions and rejuvenation timers in parallel
// with the other shards.  The VMC's job splits accordingly:
//
//   - Request dispatch becomes shard-local (SubmitShard): the client
//     population attached to a shard submits to that shard's ACTIVE VMs,
//     scanned with a per-shard shortest-queue balancer.  A shard that is
//     momentarily empty (e.g. mid-rejuvenation) forwards the request to the
//     next shard through its mailbox instead of touching it directly.
//   - Cross-shard reactions move to the epoch barrier: a VM failure posts
//     its reactive recovery to the control timeline, where the controller
//     promotes a standby (possibly on another shard) and restarts the failed
//     VM on its own sub-engine — the cross-shard mutation the plain-engine
//     hook performs inline becomes a mailbox post.
//   - The periodic control tick runs on the control timeline at its exact
//     interval, with exclusive access to all shards, exactly as before; its
//     per-shard monitor/analyze phase fans out via ParallelPhase at the
//     ShardedEngine's Workers() width, so the event loop's worker count is
//     the deployment's one parallelism setting.
package pcam

import (
	"fmt"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tracing"
)

// shardLB is the per-shard slice of the load balancer: its own round-robin
// tie-breaker and a reusable ACTIVE-VM scan buffer, touched only by the
// shard's goroutine (and by the barrier, which runs exclusively).
type shardLB struct {
	rr     int
	active []*cloudsim.VM
}

// StartSharded installs the controller on a sharded event loop: engines[i]
// is the sub-engine owning region shard i, and the control tick is scheduled
// on the ShardedEngine's control timeline so it fires at its exact interval
// with exclusive access to every shard.  It replaces Start for deployments
// running the parallel event loop.
func (v *VMC) StartSharded(se *simclock.ShardedEngine, engines []*simclock.Engine) {
	if v.started {
		return
	}
	if len(engines) != v.region.NumShards() {
		panic(fmt.Sprintf("pcam: StartSharded got %d engines for %d shards", len(engines), v.region.NumShards()))
	}
	v.started = true
	v.se = se
	v.shardEngines = engines
	v.lbs = make([]shardLB, len(engines))
	v.region.BindShardEngines(engines)
	for _, vm := range v.region.VMs() {
		v.hookVMSharded(vm)
	}
	v.stop = se.Control().Ticker(v.cfg.ControlInterval, func(e *simclock.Engine) { v.ControlTick(e) })
}

// Sharded reports whether the controller runs on a sharded event loop.
func (v *VMC) Sharded() bool { return v.se != nil }

// engineForVM returns the engine a timed transition of vm must be scheduled
// on: the VM's shard sub-engine when the controller runs sharded, otherwise
// the engine in hand (a plain, unsharded engine).
func (v *VMC) engineForVM(eng *simclock.Engine, vm *cloudsim.VM) *simclock.Engine {
	if v.shardEngines != nil {
		return v.shardEngines[vm.ShardIndex()]
	}
	return eng
}

// hookVMSharded chains the reactive-recovery handler onto the VM's failure
// hook, sharded-event-loop flavour: the failure fires on the VM's shard
// goroutine, so the reaction — a stats increment, a standby promotion that
// may touch another shard, and the restart of the failed VM — is posted to
// the control timeline and executes at the next epoch barrier.
func (v *VMC) hookVMSharded(vm *cloudsim.VM) {
	prev := vm.OnFailure
	vm.OnFailure = func(failed *cloudsim.VM, at simclock.Time) {
		if prev != nil {
			prev(failed, at)
		}
		src := v.shardEngines[failed.ShardIndex()]
		v.se.PostControl(src, func(ctrl *simclock.Engine) {
			v.stats.ReactiveRecoveries++
			v.activateStandby(ctrl)
			failed.RecoverFromFailure(v.shardEngines[failed.ShardIndex()])
		})
	}
}

// SubmitShard is the shard-local half of the load balancer: the request is
// dispatched to the ACTIVE VM with the shortest queue within the given shard
// (ties broken by a per-shard round-robin cursor).  When the shard has no
// ACTIVE VM the request hops to the next shard through its mailbox — never
// by touching the foreign shard directly — and is dropped once every shard
// has been tried.  Within the shard it makes Submit's shortest-queue pick.
func (v *VMC) SubmitShard(eng *simclock.Engine, shard int, req *cloudsim.Request) {
	v.submitShard(eng, shard, req, 0)
}

func (v *VMC) submitShard(eng *simclock.Engine, shard int, req *cloudsim.Request, hops int) {
	lb := &v.lbs[shard]
	lb.active = v.region.AppendByStateInShard(lb.active[:0], shard, cloudsim.StateActive)
	if len(lb.active) == 0 {
		if hops+1 >= v.region.NumShards() {
			req.Finish(eng, cloudsim.Outcome{Request: req, Region: v.region.Name(), Start: eng.Now(), End: eng.Now(), Dropped: true})
			return
		}
		v.hopToShard(eng, (shard+1)%v.region.NumShards(), req, hops+1)
		return
	}
	shortestQueue(lb.active, &lb.rr).Dispatch(eng, req)
}

// hopToShard forwards a request to another shard's mailbox.  Before the
// first hop the completion callback is re-homed: the request will now finish
// on a foreign sub-engine, so the original OnDone must travel back to the
// submitting shard as a mailbox post instead of running on the serving
// shard's goroutine.  A request that already carries a posting OnDoneCtx
// (one forwarded across regions by the deployment's dispatcher) keeps it —
// that wrapper already posts to the true home shard.
func (v *VMC) hopToShard(eng *simclock.Engine, next int, req *cloudsim.Request, hops int) {
	if req.OnDoneCtx == nil {
		req.RehomeOnDone(v.se, v.se.LaneOf(eng), 0)
	}
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Event(tracing.EventShardHop, eng.Now(),
			fmt.Sprintf("region=%s shard=%d hops=%d", v.region.Name(), next, hops))
	}
	// next is a region shard index; the mailbox lane is the global index of
	// that shard's sub-engine within the ShardedEngine.
	v.se.Post(eng, v.se.LaneOf(v.shardEngines[next]), func(dst *simclock.Engine) {
		v.submitShard(dst, next, req, hops)
	})
}
