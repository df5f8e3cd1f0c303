package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
)

// TestPprofDisabledByDefault: without EnablePprof the profiling routes do
// not exist — the default daemon exposes no introspection surface.
func TestPprofDisabledByDefault(t *testing.T) {
	ts := testServer(t)
	if status, _, _ := get(t, ts, "/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without -pprof = %d, want 404", status)
	}
}

// TestPprofEnabledBypassesAdmission: with EnablePprof the handlers are
// served, and they stay reachable on a draining server whose compute gate
// is shedding everything — the whole point of keeping them outside admit.
func TestPprofEnabledBypassesAdmission(t *testing.T) {
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	s := NewServer(Config{Base: base, MaxInflight: 1, EnablePprof: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if status, _, body := get(t, ts, path); status != http.StatusOK {
			t.Errorf("GET %s = %d (%s), want 200", path, status, strings.TrimSpace(body))
		}
	}

	s.Drain()
	if status, _, _ := get(t, ts, "/v1/run?id=table2"); status == http.StatusOK {
		t.Fatal("draining server should shed compute requests")
	}
	if status, _, _ := get(t, ts, "/debug/pprof/"); status != http.StatusOK {
		t.Errorf("draining server must still serve pprof, got %d", status)
	}
}

// TestFidelityParameter pins the fidelity= request knob: it reaches the
// experiment layer (provenance label on a fidelity-consuming experiment)
// and rejects unknown tiers, the retired "auto" among them, with a 400.
func TestFidelityParameter(t *testing.T) {
	ts := testServer(t)
	status, _, body := get(t, ts, "/v1/run?id=fig5&fidelity=fast")
	if status != http.StatusOK {
		t.Fatalf("fidelity=fast: status %d (%s)", status, strings.TrimSpace(body))
	}
	d, err := results.ParseJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if d.Prov.Fidelity != "fast" {
		t.Errorf("served provenance fidelity = %q, want fast", d.Prov.Fidelity)
	}

	for _, bad := range []string{"approximate", "auto"} {
		if status, _, body := get(t, ts, "/v1/run?id=fig5&fidelity="+bad); status != http.StatusBadRequest {
			t.Errorf("fidelity=%s: status %d (%s), want 400", bad, status, strings.TrimSpace(body))
		}
	}
}
