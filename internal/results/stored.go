// Stored renderings (DESIGN.md §10): a memoized dataset renders to the same
// bytes every time, so a server keeps a format's bytes once they have been
// asked for twice and copies them into every later response instead of
// calling the emitter again.
package results

import (
	"slices"
	"sync/atomic"
)

// Rendered is a dataset together with its stored renderings, one per
// registered format. A memo entry holds one, so the stored bytes live and
// die with the entry. The zero value, with Dataset set, is ready to use; a
// Rendered must not be copied after first use.
//
// A format's bytes are stored on its second successful rendering, never on
// the first: a key rendered once per format — a new-seed run answered once
// — keeps nothing beyond its dataset. A failed rendering is neither stored
// nor counted, so a dataset the json emitter rejects fails the same way on
// every request.
type Rendered struct {
	// Dataset is the memoized dataset; immutable like every cached one.
	Dataset *Dataset

	formats [len(emitters)]storedFormat // indexed like emitters
}

// storedFormat is one format's state on a Rendered.
type storedFormat struct {
	rendered atomic.Bool            // one successful rendering happened
	body     atomic.Pointer[[]byte] // the stored bytes, set on the second
}

// Append appends the dataset's rendering through em to dst, with
// em.Append's contract. For a registered emitter it copies the stored bytes
// when there are any, and stores the bytes of the second successful
// rendering. The returned buffer never aliases a stored body, so the caller
// may recycle it freely. Safe for concurrent use.
func (r *Rendered) Append(dst []byte, em Emitter) ([]byte, error) {
	f := r.format(em)
	if f == nil {
		return em.Append(dst, r.Dataset)
	}
	if b := f.body.Load(); b != nil {
		return append(dst, *b...), nil
	}
	out, err := em.Append(dst, r.Dataset)
	if err == nil && f.rendered.Swap(true) {
		body := slices.Clone(out[len(dst):])
		f.body.CompareAndSwap(nil, &body)
	}
	return out, err
}

// Stored reports whether the named format's bytes are stored.
func (r *Rendered) Stored(format string) bool {
	em, err := Lookup(format)
	if err != nil {
		return false
	}
	return r.format(em).body.Load() != nil
}

// format returns em's slot, or nil for an emitter outside the registry.
func (r *Rendered) format(em Emitter) *storedFormat {
	for i, e := range emitters {
		if e == em {
			return &r.formats[i]
		}
	}
	return nil
}
