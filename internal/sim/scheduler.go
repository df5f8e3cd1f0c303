package sim

import "fmt"

// SchedulerStats counts event traffic through a Scheduler, one counter per
// trace phase; a TraceRing keeps the same totals for the events it observes.
// All counters are cumulative since construction (or a ring's Reset).
type SchedulerStats struct {
	// Enqueued is the number of Schedule/After calls accepted
	// (PhaseEnqueue events).
	Enqueued uint64
	// Dispatched is the number of events delivered to actors
	// (PhaseDispatch events).
	Dispatched uint64
	// Completed is the number of actor handlers that returned
	// (PhaseComplete events).
	Completed uint64
}

// Scheduler is a deterministic discrete-event executor: a clock, a
// time-ordered event queue, a seeded random stream, and a set of tracing
// taps. Execution is strictly single-threaded — Step pops the earliest
// (time, FIFO) event, advances the clock to its timestamp, and hands it to
// its actor — so two schedulers built with the same seed and fed the same
// actor logic produce identical event orders, identical traces, and
// identical downstream datasets regardless of how many OS threads or sweep
// workers surround them. That property is what lets event-driven workloads
// honor the repo-wide serial-vs-parallel byte-identity contract.
//
// A Scheduler is not safe for concurrent use.
type Scheduler struct {
	clock Clock
	queue eventQueue
	seq   uint64
	rng   *Rng
	taps  []Tap
	stats SchedulerStats
}

// NewScheduler returns a scheduler at time zero whose Rng is seeded with
// seed. Same seed ⇒ identical random stream ⇒ identical run.
func NewScheduler(seed uint64) *Scheduler {
	return &Scheduler{rng: NewRng(seed)}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.clock.Now() }

// Rng returns the scheduler's seeded random stream. Actors draw from it
// during Handle; because dispatch order is deterministic, so is every draw.
func (s *Scheduler) Rng() *Rng { return s.rng }

// Stats returns cumulative event counters.
func (s *Scheduler) Stats() SchedulerStats { return s.stats }

// Tap registers a tracing tap. Taps observe every enqueue, dispatch and
// completion in execution order; registration order is preserved.
func (s *Scheduler) Tap(t Tap) {
	if t != nil {
		s.taps = append(s.taps, t)
	}
}

// Schedule enqueues ev for actor at absolute time at. Scheduling into the
// past panics — simulated time never flows backwards. Scheduling at the
// current instant is allowed and dispatches after all earlier-enqueued
// events for that instant (FIFO tie-break).
func (s *Scheduler) Schedule(at Time, actor Actor, ev Event) {
	if at < s.clock.Now() {
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", ev.Kind(), at, s.clock.Now()))
	}
	if actor == nil {
		panic("sim: event scheduled with nil actor")
	}
	it := scheduled{at: at, seq: s.seq, actor: actor, ev: ev}
	s.seq++
	s.queue.push(it)
	s.stats.Enqueued++
	s.emit(PhaseEnqueue, it)
}

// After enqueues ev for actor d past the current time. Negative d panics.
func (s *Scheduler) After(d Time, actor Actor, ev Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled %v in the past", ev.Kind(), -d))
	}
	s.Schedule(s.clock.Now()+d, actor, ev)
}

// Step dispatches the earliest pending event: the clock advances to its
// timestamp, the actor's Handle runs to completion, and taps observe the
// dispatch and completion. Step reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	it := s.queue.pop()
	s.clock.AdvanceTo(it.at)
	s.stats.Dispatched++
	s.emit(PhaseDispatch, it)
	it.actor.Handle(s, it.ev)
	s.stats.Completed++
	s.emit(PhaseComplete, it)
	return true
}

// RunUntil dispatches every event scheduled at or before deadline, then
// advances the clock to deadline. Events an actor schedules during the run
// are honored if they also fall within the deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	s.clock.AdvanceTo(deadline)
}

// Run dispatches events until the queue is empty. Actors that always
// reschedule themselves make this an infinite loop; bounded simulations
// should prefer RunUntil.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// emit fans one trace event out to every registered tap.
func (s *Scheduler) emit(phase Phase, it scheduled) {
	if len(s.taps) == 0 {
		return
	}
	te := TraceEvent{
		Phase: phase,
		Seq:   it.seq,
		At:    it.at,
		Now:   s.clock.Now(),
		Actor: it.actor.Name(),
		Kind:  it.ev.Kind(),
	}
	for _, t := range s.taps {
		t.Observe(te)
	}
}
