package sim

import "sync"

// Phase classifies a trace event within an event's lifecycle.
type Phase uint8

// Event lifecycle phases, in the order a single event passes through them.
const (
	// PhaseEnqueue fires when Schedule/After accepts an event.
	PhaseEnqueue Phase = iota
	// PhaseDispatch fires when Step pops the event and advances the clock,
	// immediately before the actor's handler runs.
	PhaseDispatch
	// PhaseComplete fires after the actor's handler returns.
	PhaseComplete
)

// String returns the lowercase phase label used in traces and metrics.
func (p Phase) String() string {
	switch p {
	case PhaseEnqueue:
		return "enqueue"
	case PhaseDispatch:
		return "dispatch"
	case PhaseComplete:
		return "complete"
	default:
		return "unknown"
	}
}

// TraceEvent is one observation from a Scheduler tap.
type TraceEvent struct {
	// Phase is where in its lifecycle the event was observed.
	Phase Phase
	// Seq is the event's FIFO sequence number (unique per scheduled
	// occurrence, shared across its enqueue/dispatch/complete records).
	Seq uint64
	// At is the simulated time the event was scheduled for.
	At Time
	// Now is the simulated time of the observation itself: enqueue time for
	// PhaseEnqueue, dispatch time (== At) for the other phases.
	Now Time
	// Actor is the receiving actor's Name.
	Actor string
	// Kind is the event's Kind label.
	Kind string
}

// Tap observes scheduler trace events. Observe is called synchronously on
// the simulation goroutine; implementations that share state with other
// goroutines (like TraceRing) must do their own locking.
type Tap interface {
	// Observe receives one trace event.
	Observe(TraceEvent)
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(TraceEvent)

// Observe implements Tap.
func (f TapFunc) Observe(te TraceEvent) { f(te) }

// TraceRing is a fixed-capacity, mutex-protected ring buffer of trace
// events plus cumulative per-phase totals (counted in a SchedulerStats, one
// counter per phase). It retains the most recent Cap
// events; older ones are overwritten. It is safe for concurrent use, so a
// single ring can absorb a simulation's tap stream while HTTP handlers
// snapshot it (the /v1/trace + /metrics path in cxlserve).
type TraceRing struct {
	mu     sync.Mutex
	buf    []TraceEvent
	next   int
	filled bool
	counts SchedulerStats
}

// NewTraceRing returns a ring retaining the most recent capacity events.
// Capacity is clamped to at least 1.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]TraceEvent, capacity)}
}

// Observe implements Tap: the event is appended, overwriting the oldest
// retained event once the ring is full.
func (r *TraceRing) Observe(te TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = te
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	switch te.Phase {
	case PhaseEnqueue:
		r.counts.Enqueued++
	case PhaseDispatch:
		r.counts.Dispatched++
	case PhaseComplete:
		r.counts.Completed++
	}
}

// Cap returns the ring's capacity.
func (r *TraceRing) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Len returns the number of events currently retained.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// Totals returns cumulative per-phase counts (not bounded by capacity).
func (r *TraceRing) Totals() SchedulerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts
}

// Snapshot returns the retained events oldest-first as a fresh slice.
func (r *TraceRing) Snapshot() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]TraceEvent, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Reset discards retained events and zeroes the totals.
func (r *TraceRing) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next = 0
	r.filled = false
	r.counts = SchedulerStats{}
	for i := range r.buf {
		r.buf[i] = TraceEvent{}
	}
}
