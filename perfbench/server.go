package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cxlmem/internal/experiments"
	"cxlmem/internal/memo"
	"cxlmem/internal/results"
	"cxlmem/internal/serve"
	"cxlmem/internal/telemetry"
)

// The in-process daemon runs with cmd/cxlserve's default flag values, so the
// benchmark measures the configuration an operator gets out of the box.
const (
	daemonTimeout      = 30 * time.Second
	daemonMaxQueue     = 64
	daemonCacheEntries = 1024
	daemonTraceCap     = 4096
)

// bench is one benchmark process: the in-process cxlserve on a loopback
// listener, the client that loads it, and the workload's recorded inputs.
type bench struct {
	seed   uint64
	base   string
	client *http.Client
	srv    *http.Server
	served chan error

	// ref holds the gated quick seed-1 dataset of each cold ID: a cold
	// response must carry its columns and row count.
	ref map[string]*results.Dataset
	// fig5 and timeline are the experiments the in-process ops and the
	// replays run; fig5Golden is fig5's golden text.
	fig5, timeline experiments.Experiment
	fig5Golden     string
	// hits and cells are the serve-hits run keys and scenario cells with
	// the bytes recorded for each in set-up; mix is the seed-shuffled op
	// sequence replayed over them.
	hits, cells []hitKey
	mix         []mixSlot
	// kindOps counts attempted ops per mix kind, for the traffic proofs.
	kindOps [numKinds]atomic.Int64
}

// newBench starts the daemon on 127.0.0.1 and a client of conns
// connections.
func newBench(seed uint64, conns int) (*bench, error) {
	experiments.ConfigureCaches(memo.CacheConfig{MaxEntries: daemonCacheEntries})
	telemetry.Sim.Configure(daemonTraceCap)
	s := serve.NewServer(serve.Config{
		Base:        experiments.DefaultOptions(),
		Timeout:     daemonTimeout,
		MaxInflight: 4 * runtime.GOMAXPROCS(0),
		MaxQueue:    daemonMaxQueue,
	})
	fig5, err := experiments.Get("fig5")
	if err != nil {
		return nil, err
	}
	timeline, err := experiments.Get("tpp-timeline")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	b := &bench{
		seed: seed,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		srv:      &http.Server{Handler: s.Handler()},
		served:   make(chan error, 1),
		ref:      map[string]*results.Dataset{},
		fig5:     fig5,
		timeline: timeline,
	}
	go func() { b.served <- b.srv.Serve(ln) }()
	return b, nil
}

// close shuts the daemon down and waits for its serve loop to return.
func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // best effort: the process exits next
	<-b.served
	b.client.CloseIdleConnections()
}

// get fetches path from the daemon; any status but 200 is an error.
func (b *bench) get(path string) ([]byte, error) {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// shed reads the admission gate's cumulative shed count from /metrics.
func (b *bench) shed() (int64, error) {
	body, err := b.get("/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "cxlserve_shed_total "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no cxlserve_shed_total")
}

// runPath is the /v1/run query for one experiment key.
func runPath(id, format, extra string) string {
	return "/v1/run?id=" + id + "&format=" + format + extra
}
