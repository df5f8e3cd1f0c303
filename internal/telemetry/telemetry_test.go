package telemetry

import (
	"math"
	"sync"
	"testing"

	"cxlmem/internal/sim"
)

func TestFeaturesOrder(t *testing.T) {
	s := Sample{L1MissLatencyNS: 1, DDRReadLatencyNS: 2, IPC: 3}
	f := s.Features()
	if len(f) != 3 || f[0] != 1 || f[1] != 2 || f[2] != 3 {
		t.Errorf("Features = %v", f)
	}
}

func TestSamplerSmoothing(t *testing.T) {
	s := NewSampler(5)
	var out Sample
	for i := 1; i <= 5; i++ {
		out = s.Add(Sample{L1MissLatencyNS: float64(i) * 10, IPC: 1})
	}
	// Mean of 10..50 = 30.
	if math.Abs(out.L1MissLatencyNS-30) > 1e-9 {
		t.Errorf("smoothed L1 = %v, want 30", out.L1MissLatencyNS)
	}
	if out.IPC != 1 {
		t.Errorf("smoothed IPC = %v", out.IPC)
	}
	// A spike moves the average by only 1/window of its weight.
	out = s.Add(Sample{L1MissLatencyNS: 1000, IPC: 1})
	if out.L1MissLatencyNS > 250 {
		t.Errorf("spike insufficiently damped: %v", out.L1MissLatencyNS)
	}
	if s.N() != 6 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSamplerPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSampler(0)
}

// TestSimTraceTapFollowsConfigure pins the tap's contract: a tap taken
// before Configure feeds the new ring, and taps racing Configure and
// snapshots stay race-free (this suite runs under -race in CI).
func TestSimTraceTapFollowsConfigure(t *testing.T) {
	st := NewSimTrace(4)
	tap := st.Tap()
	tap.Observe(sim.TraceEvent{Phase: sim.PhaseDispatch})
	st.Configure(8)
	if st.Len() != 0 || st.Cap() != 8 {
		t.Fatalf("after Configure: len %d cap %d, want 0 and 8", st.Len(), st.Cap())
	}
	tap.Observe(sim.TraceEvent{Phase: sim.PhaseComplete, Seq: 7})
	if got := st.Totals(); got.Completed != 1 || got.Dispatched != 0 {
		t.Errorf("totals after Configure = %+v, want one completion only", got)
	}
	if ev := st.Snapshot(); len(ev) != 1 || ev[0].Seq != 7 {
		t.Errorf("snapshot = %+v, want the one post-Configure event", ev)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tap.Observe(sim.TraceEvent{Phase: sim.PhaseEnqueue, Seq: uint64(i)})
			}
		}()
	}
	for i := 0; i < 50; i++ {
		st.Configure(4 + i%4)
		_ = st.Snapshot()
		st.Reset()
	}
	wg.Wait()
	if n, c := st.Len(), st.Cap(); n > c {
		t.Errorf("ring holds %d events over its capacity %d", n, c)
	}
}
