package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cxlmem/internal/experiments"
	"cxlmem/internal/memo"
	"cxlmem/internal/mlc"
	"cxlmem/internal/telemetry"
)

// counters snapshots every layer counter a traffic proof reads. Reading
// them is a few atomic loads and one /metrics fetch, outside the ops.
type counters struct {
	dataset, cell, warm memo.CacheStats
	shed, simEvents     int64
	kinds               [numKinds]int64
	alloc               uint64
}

func (b *bench) snapshot() (counters, error) {
	var c counters
	c.dataset, c.cell = experiments.CacheStats()
	c.warm = mlc.WarmStateStats()
	c.simEvents = int64(telemetry.Sim.Totals().Dispatched)
	for k := range c.kinds {
		c.kinds[k] = b.kindOps[k].Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	var err error
	c.shed, err = b.shed()
	return c, err
}

// window is what one timed closed loop did: its ops, their latencies, and
// the counter deltas over it.
type window struct {
	ops, failed    int64
	elapsed        time.Duration // window start to the last op's completion
	lat            []float64     // ms, every op
	tracedLat      []float64     // ms, replays that recorded spans
	untracedLat    []float64     // ms, replays that did not
	dataset, cell  memo.CacheStats
	warm           memo.CacheStats
	shed           int64
	simEvents      int64
	kinds          [numKinds]int64
	cellSizeBefore int64
	allocBytes     uint64
	firstErr       error
}

func delta(after, before memo.CacheStats) memo.CacheStats {
	return memo.CacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
	}
}

// A check verifies one op's output after the op's latency was taken. A
// check that allocates (a JSON parse) runs later, once the window and its
// counters are closed, so neither its time nor its allocations count
// against the program.
type check struct {
	fn    func() error
	later bool
}

// run drives w's closed loop for d: each of w.conns clients claims the next
// op index and sends it once its previous op returned. Ops still running at
// the deadline finish and count. Without a tracer the clients send w.op;
// with one they send w.replay, recording spans on odd ops and none on even
// ops, so traced and untraced replays interleave under the same
// conditions.
func (b *bench) run(w *workload, d time.Duration, tr *tracer) (*window, error) {
	before, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	type sample struct {
		ms     float64
		traced bool
		err    error
	}
	type pending struct {
		conn, idx int
		fn        func() error
	}
	var next atomic.Int64
	per := make([][]sample, w.conns)
	later := make([][]pending, w.conns)
	last := make([]time.Time, w.conns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// At least two ops run, so a traced run has one of each kind.
			for time.Now().Before(deadline) || next.Load() < 2 {
				i := next.Add(1) - 1
				var (
					ck  check
					err error
					t   *tracer
				)
				t0 := time.Now()
				if tr == nil {
					ck, err = w.op(b, i)
				} else {
					if i%2 == 1 {
						t = tr
					}
					root := t.begin("op", 0, i)
					err = w.replay(b, i, t, root)
					t.end(root)
				}
				last[c] = time.Now()
				s := sample{ms: msSince(t0, last[c]), traced: t != nil, err: err}
				if err == nil && ck.fn != nil {
					if ck.later {
						later[c] = append(later[c], pending{c, len(per[c]), ck.fn})
					} else {
						s.err = ck.fn()
					}
				}
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	after, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	for _, ps := range later {
		for _, p := range ps {
			per[p.conn][p.idx].err = p.fn()
		}
	}

	win := &window{
		dataset:        delta(after.dataset, before.dataset),
		cell:           delta(after.cell, before.cell),
		warm:           delta(after.warm, before.warm),
		shed:           after.shed - before.shed,
		simEvents:      after.simEvents - before.simEvents,
		cellSizeBefore: int64(before.cell.Size),
		allocBytes:     after.alloc - before.alloc,
	}
	for k := range win.kinds {
		win.kinds[k] = after.kinds[k] - before.kinds[k]
	}
	end := start
	for c := range per {
		if last[c].After(end) {
			end = last[c]
		}
		for _, s := range per[c] {
			win.ops++
			win.lat = append(win.lat, s.ms)
			if s.traced {
				win.tracedLat = append(win.tracedLat, s.ms)
			} else {
				win.untracedLat = append(win.untracedLat, s.ms)
			}
			if s.err != nil {
				win.failed++
				if win.firstErr == nil {
					win.firstErr = s.err
				}
			}
		}
	}
	win.elapsed = end.Sub(start)
	return win, nil
}

func msSince(t0, t1 time.Time) float64 { return float64(t1.Sub(t0).Nanoseconds()) / 1e6 }

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantiles are the latency percentiles reported when the run holds
// enough ops that at least ten samples lie beyond each.
var tailQuantiles = []struct {
	name   string
	q      float64
	minOps int64
}{
	{"latency_p90_ms", 0.90, 100},
	{"latency_p99_ms", 0.99, 1000},
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(f))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

// A proof is one traffic claim checked against a layer counter, reported
// with its base (the count the share is taken of).
type proof struct {
	name      string
	got, want int64
	base      int64
	atLeast   bool
}

func exact(name string, got, want, base int64) proof {
	return proof{name: name, got: got, want: want, base: base}
}

func atLeast(name string, got, want, base int64) proof {
	return proof{name: name, got: got, want: want, base: base, atLeast: true}
}

func (p proof) ok() bool {
	if p.atLeast {
		return p.got >= p.want
	}
	return p.got == p.want
}

func (p proof) String() string {
	rel, verdict := "==", "ok"
	if p.atLeast {
		rel = ">="
	}
	if !p.ok() {
		verdict = "FAIL"
	}
	share := "n/a"
	if p.base > 0 {
		share = strconv.FormatFloat(float64(p.got)/float64(p.base), 'f', 4, 64)
	}
	return fmt.Sprintf("%-22s %d (want %s %d; share %s of base %d) %s", p.name, p.got, rel, p.want, share, p.base, verdict)
}

// proofs are w's own claims plus the one every workload makes: the
// admission gate shed nothing. A traced replay makes its own calls beside
// the workload's, so only the shed claim applies to it.
func (b *bench) proofs(w *workload, win *window, traced bool) []proof {
	shed := exact("shed", win.shed, 0, win.ops)
	if traced {
		return []proof{shed}
	}
	return append(w.prove(b, win), shed)
}
