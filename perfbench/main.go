// Command perfbench is the cxlmem benchmark. It runs one closed-loop
// workload against the library and an in-process cxlserve daemon. With
// -trace 0 it prints the end-to-end metrics of the timed window; with
// -trace 1 it replays the workload's ops layer by layer, one span per call,
// and prints the per-layer metrics. README.md describes the workloads and
// metrics.
//
// Usage (from the repository root):
//
//	perfbench -workload fig5-cold -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is when the process began running Go code; set-up time
// counts from it.
var processStart = time.Now()

// setupRounds is how many times an untraced run sets the workload up: once
// in this process before its timed window, and once in each of
// setupRounds-1 fresh child processes after it. setup_s is the median.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fig5-cold, fig5-warm, timeline-cold or serve-hits")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print the set-up time in seconds and exit")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to")
	source := flag.String("source", "unknown", "revision of the code under test, recorded with the host facts")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		return 2
	}

	b, err := newBench(*seed, w.conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer b.close()
	if *setupOnly {
		if err := w.setup(b); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		fmt.Println(time.Since(processStart).Seconds())
		return 0
	}

	host := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"source":     *source,
	}
	fmt.Printf("host: nproc=%s GOMAXPROCS=%s go=%s source=%s\n", host["nproc"], host["GOMAXPROCS"], host["go"], host["source"])

	var tr *tracer
	if *trace == 1 {
		// The seed-1 check runs before the set-up, so the set-up (and its
		// cache warming) is the last thing before the replay.
		if err := checkSeed1(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		tr = newTracer()
	}
	if err := w.setup(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	setupS := time.Since(processStart).Seconds()

	win, err := b.run(w, time.Duration(*seconds*float64(time.Second)), tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if win.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", win.firstErr)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	kind := "untraced"
	if tr != nil {
		kind = "traced replay, every other op traced"
	}
	fmt.Printf("workload %s seed %d (%s): %d ops over %.3f s, %d connection(s), closed loop\n",
		w.name, *seed, kind, win.ops, win.elapsed.Seconds(), w.conns)
	endToEnd := map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {float64(win.ops) / win.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {median(win.lat), "ms"},
		"alloc_mb_per_op": {float64(win.allocBytes) / float64(win.ops) / (1 << 20), "MB"},
		"peak_rss_mb":     {rss, "MB"},
	}
	correct := win.failed == 0
	fmt.Println("traffic:")
	for _, p := range b.proofs(w, win, tr != nil) {
		fmt.Println("  " + p.String())
		correct = correct && p.ok()
	}

	res := result{Correct: correct, Attempted: win.ops, Failed: win.failed}
	if tr == nil {
		setups, err := childSetups(w.name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up rounds:", err)
			return 1
		}
		setups = append(setups, setupS)
		endToEnd["setup_s"] = metric{median(setups), "s"}
		fmt.Println("end to end:")
		printMetrics(endToEnd, nil)
		fmt.Printf("  %-34s %s\n", "setup_s per round", joinFloats(setups))
		printTailAndFailures(win)
		res.Metrics = endToEnd
	} else {
		fmt.Println("end to end of the traced run (set-up includes the seed-1 check):")
		printMetrics(endToEnd, nil)
		printTailAndFailures(win)
		tr.finish()
		var bases map[string]int64
		res.Metrics, bases = layerMetrics(win, tr)
		fmt.Println("per layer (base: spans or ops the value is taken over):")
		printMetrics(res.Metrics, bases)
		tr.summary(os.Stderr)
		if *traceOut != "" {
			if err := tr.write(*traceOut, host); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				return 1
			}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number\n", name)
			return 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// childSetups runs the workload's set-up in setupRounds-1 fresh processes,
// one after another, and returns each one's set-up time.
func childSetups(workload string, seed uint64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for k := 1; k < setupRounds; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		s, err := strconv.ParseFloat(lines[len(lines)-1], 64)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func printTailAndFailures(win *window) {
	for _, t := range tailQuantiles {
		if win.ops >= t.minOps {
			fmt.Printf("  %-34s %14.4f ms (n=%d)\n", t.name, quantile(win.lat, t.q), win.ops)
		} else {
			fmt.Printf("  %-34s %14s    (n=%d < %d ops)\n", t.name, "n/a", win.ops, t.minOps)
		}
	}
	fmt.Printf("  %-34s %14.4f    (%d failed of %d)\n", "fail_frac", float64(win.failed)/float64(win.ops), win.failed, win.ops)
}

// printMetrics prints ms sorted by name, each with its base when bases has
// one.
func printMetrics(ms map[string]metric, bases map[string]int64) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base := ""
		if b, ok := bases[n]; ok {
			base = fmt.Sprintf("  (base %d)", b)
		}
		fmt.Printf("  %-34s %14.4f %s%s\n", n, ms[n].Value, ms[n].Unit, base)
	}
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(s, ", ")
}
