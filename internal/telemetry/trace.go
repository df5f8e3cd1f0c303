package telemetry

import (
	"sync/atomic"

	"cxlmem/internal/sim"
)

// SimTrace is a process-wide sink for discrete-event scheduler traces: a
// swappable sim.TraceRing every event-driven workload taps into, so cxlserve
// can expose the most recent simulation activity over /v1/trace and count
// event traffic in /metrics without plumbing a ring through every layer.
//
// Multiple simulations may feed the ring concurrently (sweep workers run
// cells in parallel); the ring itself is mutex-protected, and per-run
// determinism is untouched because each run's own dataset never reads the
// shared ring back. The current ring sits behind an atomic pointer, so an
// observation costs one atomic load, not a lock round trip; an observation
// racing a Configure lands in whichever ring it loaded.
type SimTrace struct {
	ring atomic.Pointer[sim.TraceRing]
}

// NewSimTrace returns a sink retaining the most recent capacity events.
func NewSimTrace(capacity int) *SimTrace {
	t := &SimTrace{}
	t.ring.Store(sim.NewTraceRing(capacity))
	return t
}

// Sim is the process-wide trace sink. Event-driven experiment drivers attach
// Sim.Tap() to their schedulers; cxlserve reads it.
var Sim = NewSimTrace(4096)

// Tap returns the tap to attach to a scheduler. The tap stays valid across
// Configure: it resolves the current ring on every observation.
func (t *SimTrace) Tap() sim.Tap {
	return sim.TapFunc(func(te sim.TraceEvent) { t.ring.Load().Observe(te) })
}

// Snapshot returns the retained events oldest-first.
func (t *SimTrace) Snapshot() []sim.TraceEvent { return t.ring.Load().Snapshot() }

// Totals returns cumulative per-phase counts since the last Configure/Reset.
func (t *SimTrace) Totals() sim.SchedulerStats { return t.ring.Load().Totals() }

// Len returns the number of retained events.
func (t *SimTrace) Len() int { return t.ring.Load().Len() }

// Cap returns the ring capacity.
func (t *SimTrace) Cap() int { return t.ring.Load().Cap() }

// Configure replaces the ring with a fresh one of the given capacity,
// discarding retained events and totals (cxlserve's -trace-cap flag).
func (t *SimTrace) Configure(capacity int) { t.ring.Store(sim.NewTraceRing(capacity)) }

// Reset discards retained events and totals, keeping the capacity.
func (t *SimTrace) Reset() { t.ring.Load().Reset() }
