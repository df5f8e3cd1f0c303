// The sharded-cache proxy hop and the warm-start snapshot endpoint
// (DESIGN.md §14). With Config.Ring set, each compute request resolves its
// canonical memo key and is either served locally (this replica owns the
// key, or a peer already forwarded it here) or forwarded exactly one hop to
// the owning replica. The single-hop guarantee comes from the loop-guard
// header: a forwarded request is always served where it lands, even if ring
// views disagree mid-rollout, so misconfigured peer sets degrade to extra
// computation, never to a forwarding loop. A transport failure on the hop
// falls back to local computation — any replica can compute any key with
// byte-identical results, so the fleet keeps its zero-5xx envelope while a
// peer is down.
package serve

import (
	"io"
	"net/http"
	"strings"
	"time"

	"cxlmem/internal/experiments"
)

// proxyHeader is the loop-guard header stamped on every forwarded request.
// Its value is the forwarding replica's advertised address, which makes the
// hop visible in access logs; its presence alone disarms re-forwarding.
const proxyHeader = "X-Cxlserve-Proxy"

// defaultProxyTimeout bounds the proxy hop when Config.ProxyClient is nil,
// matching the coordinator's cell-fetch budget.
const defaultProxyTimeout = 5 * time.Minute

// proxyClient resolves the HTTP client for the proxy hop.
func (s *Server) proxyClient() *http.Client {
	if s.cfg.ProxyClient != nil {
		return s.cfg.ProxyClient
	}
	return &http.Client{Timeout: defaultProxyTimeout}
}

// proxy routes one compute request by its canonical key on a sharded
// server (callers check Config.Ring first, so an unsharded server never
// builds a routing key). It returns true if the response was fully written
// (the request was forwarded to the owning replica); false means the caller
// must serve locally — because this replica owns the key, a peer already
// forwarded the request here (loop guard), or the hop failed and local
// computation is the fallback.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, key string) bool {
	if r.Header.Get(proxyHeader) != "" {
		// One hop only: a forwarded request is served where it lands.
		s.metrics.proxyReceived.Add(1)
		return false
	}
	if s.cfg.Ring.Owns(key) {
		return false
	}
	owner := s.cfg.Ring.Owner(key)
	target := strings.TrimSuffix(owner, "/") + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		s.metrics.proxyErrors.Add(1)
		return false
	}
	self := s.cfg.Ring.Self()
	if self == "" {
		self = "1"
	}
	req.Header.Set(proxyHeader, self)
	resp, err := s.proxyClient().Do(req)
	if err != nil {
		// The owner is unreachable; compute locally rather than surface a
		// 5xx — correctness never depended on where the key runs.
		s.metrics.proxyErrors.Add(1)
		return false
	}
	defer resp.Body.Close()
	s.metrics.proxyForwarded.Add(1)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// snapshot serves GET /v1/snapshot: the dataset cache's warm-start snapshot
// in the schema internal/experiments.ImportDatasetCache accepts, so an
// operator can seed a fresh replica from a warm one with two curls.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	data, err := experiments.ExportDatasetCache()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
