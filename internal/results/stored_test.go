package results

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
)

// storedDataset is a small dataset every emitter renders.
func storedDataset() *Dataset {
	d := New("stored", "stored renderings", Column{Name: "name"}, Column{Name: "v", Unit: "ns"})
	d.AddRow(Str("a"), Num(1.25, 2))
	d.AddRow(Str("b"), Pct(0.5))
	d.AddNote("n=%d", 2)
	return d
}

// TestRenderedStoresOnSecondRender pins the storing rule: a format's bytes
// are kept on its second successful rendering, never on the first, and only
// for that format; every rendering, stored or not, equals the emitter's.
func TestRenderedStoresOnSecondRender(t *testing.T) {
	r := &Rendered{Dataset: storedDataset()}
	for fi, format := range Formats() {
		em, err := Lookup(format)
		if err != nil {
			t.Fatal(err)
		}
		want, err := em.Append(nil, r.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 3; call++ {
			got, err := r.Append([]byte("prefix:"), em)
			if err != nil {
				t.Fatalf("%s call %d: %v", format, call, err)
			}
			if string(got) != "prefix:"+string(want) {
				t.Errorf("%s call %d: rendering diverges from the emitter", format, call)
			}
			if stored := r.Stored(format); stored != (call >= 2) {
				t.Errorf("%s after call %d: stored = %t", format, call, stored)
			}
		}
		if got, want := storedFormats(r), Formats()[:fi+1]; !slices.Equal(got, want) {
			t.Errorf("after rendering %s: stored %v, want %v", format, got, want)
		}
	}
	if r.Stored("bogus") {
		t.Error("an unknown format reports stored bytes")
	}
}

// storedFormats lists the formats with stored bytes, in registry order.
func storedFormats(r *Rendered) []string {
	var out []string
	for _, f := range Formats() {
		if r.Stored(f) {
			out = append(out, f)
		}
	}
	return out
}

// TestRenderedNeverStoresFailure checks that a rendering error is neither
// stored nor counted: a NaN cell fails json on every call, while text, which
// renders it, still stores on its second call.
func TestRenderedNeverStoresFailure(t *testing.T) {
	d := New("nan", "a NaN cell", Column{Name: "v"})
	d.AddRow(Num(math.NaN(), 1))
	r := &Rendered{Dataset: d}
	em, _ := Lookup("json")
	for call := 1; call <= 3; call++ {
		out, err := r.Append([]byte("x"), em)
		if err == nil {
			t.Fatalf("json call %d rendered a NaN cell", call)
		}
		if string(out) != "x" {
			t.Errorf("json call %d: failed rendering left %q, want dst unchanged", call, out)
		}
		if r.Stored("json") {
			t.Fatalf("json call %d stored a failed rendering", call)
		}
	}
	text, _ := Lookup("text")
	for call := 1; call <= 2; call++ {
		if _, err := r.Append(nil, text); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Stored("text") {
		t.Error("text not stored after two renderings beside a failing json")
	}
}

// foreignEmitter is an emitter outside the registry that counts its calls.
type foreignEmitter struct{ calls *int }

// Name implements Emitter with a registered format's name.
func (foreignEmitter) Name() string { return "json" }

// ContentType implements Emitter.
func (foreignEmitter) ContentType() string { return "text/plain" }

// Append implements Emitter.
func (e foreignEmitter) Append(dst []byte, d *Dataset) ([]byte, error) {
	*e.calls++
	return append(dst, d.ID...), nil
}

// TestRenderedForeignEmitter checks that an emitter outside the registry,
// even one reusing a registered name, always renders and never stores.
func TestRenderedForeignEmitter(t *testing.T) {
	r := &Rendered{Dataset: storedDataset()}
	calls := 0
	for i := 0; i < 3; i++ {
		if out, _ := r.Append(nil, foreignEmitter{&calls}); string(out) != "stored" {
			t.Fatalf("foreign rendering = %q", out)
		}
	}
	if calls != 3 || r.Stored("json") {
		t.Errorf("foreign emitter: %d calls, json stored %t; want 3 calls, nothing stored", calls, r.Stored("json"))
	}
}

// TestRenderedBufferNeverAliasesStored checks that the buffer Append returns
// owns its bytes: scribbling over all of its capacity leaves the stored
// rendering intact.
func TestRenderedBufferNeverAliasesStored(t *testing.T) {
	r := &Rendered{Dataset: storedDataset()}
	em, _ := Lookup("text")
	want, _ := em.Append(nil, r.Dataset)
	var buf []byte
	for call := 0; call < 4; call++ {
		out, err := r.Append(buf[:0], em)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Fatalf("call %d: rendering diverges after a scribble", call)
		}
		buf = out[:cap(out)]
		for i := range buf {
			buf[i] = 'X'
		}
	}
}

// TestRenderedConcurrent races first, second and stored renderings of every
// format on one Rendered; run under -race in CI.
func TestRenderedConcurrent(t *testing.T) {
	r := &Rendered{Dataset: storedDataset()}
	errc := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		for _, format := range Formats() {
			wg.Add(1)
			go func(format string) {
				defer wg.Done()
				em, _ := Lookup(format)
				want, _ := em.Append(nil, r.Dataset)
				var buf []byte
				for i := 0; i < 20; i++ {
					out, err := r.Append(buf[:0], em)
					if err == nil && string(out) != string(want) {
						err = errors.New(format + ": concurrent rendering diverges")
					}
					if err != nil {
						errc <- err
						return
					}
					buf = out
				}
			}(format)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for _, format := range Formats() {
		if !r.Stored(format) {
			t.Errorf("%s not stored after concurrent renderings", format)
		}
	}
}
