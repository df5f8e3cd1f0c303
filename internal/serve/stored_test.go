package serve

// Stored renderings end to end: repeat /v1/run hits answer the bytes stored
// on their memo entry, which must equal a fresh rendering of the memoized
// dataset on every hit, in every format, under concurrency.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
)

// seeds hands out seeds no other test (or earlier -count pass) has used, so
// each caller starts from a dataset key the memo does not hold.
var seeds atomic.Uint64

// freshSeed returns the next unused seed.
func freshSeed() uint64 { return 990000 + seeds.Add(1) }

// quickBase is the servers' base options: quick mode at seed 1.
func quickBase() experiments.Options {
	o := experiments.DefaultOptions()
	o.Quick = true
	return o
}

// TestRunHitsMatchEmit checks every registered ID in every format at quick
// seed 1: the first, second and third /v1/run responses — rendered, then
// stored, then copied from the stored bytes — each equal results.Emit of
// the memoized dataset byte for byte.
func TestRunHitsMatchEmit(t *testing.T) {
	_, ts := hardenedServer(t, Config{Base: quickBase()})
	for _, id := range experiments.IDs() {
		d, err := experiments.RunDataset(id, quickBase())
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range results.Formats() {
			want, err := results.Emit(d, format)
			if err != nil {
				t.Fatal(err)
			}
			for hit := 1; hit <= 3; hit++ {
				status, _, body := get(t, ts, "/v1/run?id="+id+"&format="+format)
				if status != http.StatusOK || body != want {
					t.Fatalf("%s %s hit %d: status %d, body equal to Emit: %t", id, format, hit, status, body == want)
				}
			}
		}
	}
}

// TestRunStoresOnSecondRender checks the storing rule through the daemon:
// a key rendered once keeps no stored body, and one rendered twice keeps
// one in that format only.
func TestRunStoresOnSecondRender(t *testing.T) {
	_, ts := hardenedServer(t, Config{Base: quickBase()})
	o := quickBase()
	o.Seed = freshSeed()
	path := fmt.Sprintf("/v1/run?id=table2&seed=%d&format=", o.Seed)
	stored := func() string {
		t.Helper()
		rd, err := experiments.RunRendered("table2", o)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range results.Formats() {
			if rd.Stored(f) {
				out = append(out, f)
			}
		}
		return strings.Join(out, ",")
	}
	for _, step := range []struct{ format, want string }{
		{"json", ""},     // first json render: nothing kept
		{"text", ""},     // first text render: nothing kept
		{"json", "json"}, // second json render: json kept, text not
		{"json", "json"}, // a stored hit keeps it
		{"csv", "json"},
	} {
		if status, _, body := get(t, ts, path+step.format); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.format, status, body)
		}
		if got := stored(); got != step.want {
			t.Fatalf("after a %s hit: stored formats %q, want %q", step.format, got, step.want)
		}
	}
}

// TestRenderedNaNAnswers500 checks that a memo entry whose json rendering
// fails answers 500 on every request and never stores a body.
func TestRenderedNaNAnswers500(t *testing.T) {
	d := results.New("nonfinite", "a NaN cell", results.Column{Name: "v"})
	d.AddRow(results.Num(math.NaN(), 1))
	rd := &results.Rendered{Dataset: d}
	em, err := results.Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 3; call++ {
		rec := httptest.NewRecorder()
		emitRendered(rec, em, rd)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
			t.Fatalf("call %d: %d %q, want 500 with the encoder error", call, rec.Code, rec.Body.String())
		}
		if rd.Stored("json") {
			t.Fatalf("call %d stored a failed rendering", call)
		}
	}
}

// TestConcurrentStoredHits races hits on one fresh key in all three formats,
// so first renders, the storing second render and stored copies overlap;
// every response must equal the dataset's emission. Run under -race in CI.
func TestConcurrentStoredHits(t *testing.T) {
	_, ts := hardenedServer(t, Config{Base: quickBase()})
	o := quickBase()
	o.Seed = freshSeed()
	d, err := experiments.RunDataset("fig4a", o)
	if err != nil {
		t.Fatal(err)
	}
	const perFormat = 6
	errc := make(chan error, perFormat*3)
	var wg sync.WaitGroup
	for g := 0; g < perFormat; g++ {
		for _, format := range results.Formats() {
			wg.Add(1)
			go func(format string) {
				defer wg.Done()
				want, _ := results.Emit(d, format)
				for i := 0; i < 4; i++ {
					resp, err := http.Get(fmt.Sprintf("%s/v1/run?id=fig4a&seed=%d&format=%s", ts.URL, o.Seed, format))
					if err != nil {
						errc <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || string(body) != want {
						errc <- fmt.Errorf("%s: status %d, body equal to Emit: %t", format, resp.StatusCode, string(body) == want)
						return
					}
				}
			}(format)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPooledBufferNeverAliasesStored scribbles over all of the capacity of
// every buffer respond hands to bodyPool after a stored hit, and of a
// buffer then taken from bodyPool: the stored bytes, and so every later
// response, must be untouched.
func TestPooledBufferNeverAliasesStored(t *testing.T) {
	o := quickBase()
	o.Seed = freshSeed()
	rd, err := experiments.RunRendered("fig4a", o)
	if err != nil {
		t.Fatal(err)
	}
	em, err := results.Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Emit(rd.Dataset, "json")
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(b []byte) {
		b = b[:cap(b)]
		for j := range b {
			b[j] = 'X'
		}
	}
	for i := 0; i < 20; i++ {
		var pooled []byte // the buffer respond recycles into bodyPool
		rec := httptest.NewRecorder()
		respond(rec, em.ContentType(), func(dst []byte) ([]byte, error) {
			out, err := rd.Append(dst, em)
			pooled = out
			return out, err
		})
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("hit %d: status %d, body equal to Emit: %t", i, rec.Code, rec.Body.String() == want)
		}
		scribble(pooled)
		buf := bodyPool.Get().(*[]byte)
		scribble(*buf)
		bodyPool.Put(buf)
	}
	if !rd.Stored("json") {
		t.Fatal("json not stored after repeated hits")
	}
	if got, _ := rd.Append(nil, em); string(got) != want {
		t.Error("stored json changed after its pooled buffers were scribbled over")
	}
}
