// The discrete-event core (DESIGN.md §13): Event/Actor interfaces and the
// time-ordered event queue behind the Scheduler. The queue is for dynamic
// scenarios — migration timelines, bursty arrivals, multi-tenant contention —
// where *when* things happen is the result, not a discretization artifact.
package sim

// Event is one unit of scheduled work. Implementations are plain data the
// receiving Actor interprets; the engine only asks for a Kind label so
// tracing taps can classify events without reflection.
type Event interface {
	// Kind names the event type for tracing ("arrival", "scan", ...).
	Kind() string
}

// Actor handles events addressed to it. Actors are single-threaded by
// construction: a Scheduler dispatches exactly one event at a time, so
// handlers may mutate shared simulation state without locks.
type Actor interface {
	// Name identifies the actor in traces.
	Name() string
	// Handle processes one event. It may schedule follow-up events on s;
	// scheduling into the past panics.
	Handle(s *Scheduler, ev Event)
}

// EventFunc is a convenience Event: a bare kind label with no payload.
// Self-rescheduling actors (tickers, scan loops) share one EventFunc value
// across every occurrence, keeping the steady-state schedule allocation-free.
type EventFunc string

// Kind implements Event.
func (e EventFunc) Kind() string { return string(e) }

// scheduled is one queued event occurrence: the dispatch time, the FIFO
// tie-break sequence number, and the (actor, event) pair.
type scheduled struct {
	at    Time
	seq   uint64
	actor Actor
	ev    Event
}

// eventQueue is a binary min-heap of scheduled events ordered by (at, seq):
// earliest dispatch time first, and FIFO — enqueue order — among events
// scheduled for the same instant. The seq tie-break is what makes the
// dispatch order (and therefore every trace and dataset) deterministic.
type eventQueue []scheduled

// less orders the heap by time, then by enqueue sequence.
func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// push adds an event occurrence and restores the heap invariant.
func (q *eventQueue) push(it scheduled) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest occurrence. It panics on an empty
// queue; callers check len first.
func (q *eventQueue) pop() scheduled {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = scheduled{} // release actor/event references
	*q = h[:last]
	h = *q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}
