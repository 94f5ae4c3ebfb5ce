package cloudsim

import (
	"fmt"

	"repro/internal/simclock"
	"repro/internal/tracing"
)

// Request is one client interaction to be served by a VM hosting the server
// replica.  The workload package generates requests according to the TPC-W
// interaction mix; cloudsim only cares about the relative service demand of
// each interaction class.
type Request struct {
	// ID is a unique identifier assigned by the workload generator.
	ID uint64
	// Class names the TPC-W interaction (e.g. "home", "search_request"),
	// carried for tracing purposes.
	Class string
	// ServiceFactor scales the instance's base service demand: a value of 2
	// means the interaction costs twice the base demand (e.g. a best-seller
	// query hitting the database harder than serving the home page).
	ServiceFactor float64
	// EntryRegion is the region whose load balancer first received the
	// request (before any cross-region forwarding decided by the plan).
	EntryRegion string
	// Arrival is the simulated time the request entered the system.
	Arrival simclock.Time
	// Forwarded reports whether the request was forwarded to a region other
	// than its entry region by the global forward plan.
	Forwarded bool
	// Batch is the number of client interactions this request stands for.
	// Cohort-compressed populations submit one request per counted batch of
	// statistically identical interactions; a VM serves the batch back to
	// back (Erlang service time) and weights its throughput and drop
	// counters by the batch size.  Zero or one means an ordinary individual
	// request.
	Batch int
	// Trace is the request's span log when the deployment's tracer sampled
	// it, nil otherwise.  All RequestTrace methods are nil-receiver safe, so
	// instrumentation points annotate unconditionally; the sampling decision
	// is a pure derived-seed function of (stream, ID), so whether Trace is
	// set never depends on engine RNG state or worker interleavings.
	Trace *tracing.RequestTrace
	// OnDone, if non-nil, is invoked exactly once when the request completes
	// (successfully or not).
	OnDone func(Outcome)
	// OnDoneCtx, if non-nil, takes precedence over OnDone and additionally
	// receives the engine on which the completion fired.  The sharded event
	// loop uses it to learn which shard sub-engine served the request so the
	// completion can be posted back to the issuing shard's mailbox instead of
	// touching the issuer's state from a foreign goroutine.
	OnDoneCtx func(eng *simclock.Engine, o Outcome)
}

// Weight returns the number of client interactions the request stands for:
// Batch for a cohort batch, 1 for an ordinary request.
func (r *Request) Weight() uint64 {
	if r.Batch > 1 {
		return uint64(r.Batch)
	}
	return 1
}

// Outcome describes how a request terminated.
type Outcome struct {
	// Request echoes the originating request.
	Request *Request
	// VM is the identifier of the VM that served (or dropped) the request;
	// empty if no VM could be found.
	VM string
	// Region is the region that processed the request.
	Region string
	// Start is the time service began (queue exit).
	Start simclock.Time
	// End is the completion (or drop) time.
	End simclock.Time
	// Dropped is true when the request was not served: the VM crashed while
	// the request was queued or in service, or no ACTIVE VM was available.
	Dropped bool
}

// ResponseTime returns the end-to-end latency observed by the client: time
// from arrival at the load balancer to completion.
func (o Outcome) ResponseTime() simclock.Duration {
	if o.Request == nil {
		return 0
	}
	return o.End.Sub(o.Request.Arrival)
}

// ServiceTime returns the time the request actually spent in service.
func (o Outcome) ServiceTime() simclock.Duration { return o.End.Sub(o.Start) }

// finish invokes the completion callback exactly once, with the engine the
// completion fired on.
func (r *Request) finish(eng *simclock.Engine, o Outcome) {
	if r.OnDoneCtx != nil {
		cb := r.OnDoneCtx
		r.OnDoneCtx = nil
		r.OnDone = nil
		cb(eng, o)
		return
	}
	if r.OnDone != nil {
		cb := r.OnDone
		r.OnDone = nil
		cb(o)
	}
}

// Finish completes the request exactly once through whichever completion
// callback is installed.  It is the exported entry point for load balancers
// and dispatchers that terminate a request themselves (e.g. dropping it when
// no ACTIVE VM exists) rather than handing it to a VM.
func (r *Request) Finish(eng *simclock.Engine, o Outcome) { r.finish(eng, o) }

// RehomeOnDone prepares the request to complete on a foreign shard of a
// sharded event loop: the current OnDone is replaced by an OnDoneCtx that
// runs it directly when the completion fires on the home lane, and otherwise
// posts it to the home shard's mailbox — so the issuer's state is never
// touched from a foreign goroutine.  returnLeg is added to the outcome's End
// first: the client-visible completion of a request forwarded over the
// overlay includes the response's trip back (0 for none).  Both the region
// load balancer's empty-shard hop and the deployment's cross-region
// dispatchers route completions through this one helper.
func (r *Request) RehomeOnDone(se *simclock.ShardedEngine, home int, returnLeg simclock.Duration) {
	orig := r.OnDone
	r.OnDone = nil
	r.OnDoneCtx = func(ceng *simclock.Engine, o Outcome) {
		if orig == nil {
			return
		}
		o.End = o.End.Add(returnLeg)
		if se.LaneOf(ceng) == home {
			orig(o)
			return
		}
		if r.Trace != nil {
			// Guarded so the detail string is only built for sampled
			// requests — the rehome path runs for every forwarded request.
			r.Trace.Event(tracing.EventRehome, ceng.Now(),
				fmt.Sprintf("lane=%d home=%d", se.LaneOf(ceng), home))
		}
		se.Post(ceng, home, func(*simclock.Engine) { orig(o) })
	}
}
