// Pluggable emitters: rendering is a consumer concern, not something the
// experiment drivers bake into their rows. The registry is fixed at compile
// time — text (legacy-identical), json (lossless wire form, see json.go) and
// csv (data-only full-precision view, see csv.go).
//
// Every emitter appends to a caller's buffer with strconv and hand-written
// layout — no reflection, fmt or encoding/csv — so a server can render a
// response into one recycled buffer. The bytes equal what encoding/json,
// fmt and encoding/csv produced before; oracle_test.go keeps those
// renderings as the test oracle.
package results

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Emitter renders a Dataset in one output format.
type Emitter interface {
	// Name is the format key accepted by Lookup/Emit ("text", "json", "csv").
	Name() string
	// ContentType is the HTTP media type of the emitted bytes.
	ContentType() string
	// Append appends the dataset's rendering to dst and returns the extended
	// buffer. On error it returns dst at its original length, so no partial
	// rendering is kept. Append must not mutate d — cached datasets are
	// emitted concurrently.
	Append(dst []byte, d *Dataset) ([]byte, error)
}

// emitters is the fixed registry in presentation order: the default format
// first. An array, so Rendered can size its per-format slots by it.
var emitters = [...]Emitter{textEmitter{}, jsonEmitter{}, csvEmitter{}}

// Formats lists the registered emitter names, default first.
func Formats() []string {
	out := make([]string, len(emitters))
	for i, e := range emitters {
		out[i] = e.Name()
	}
	return out
}

// Lookup resolves a format name to its emitter; the empty name selects the
// default (text).
func Lookup(format string) (Emitter, error) {
	if format == "" {
		return emitters[0], nil
	}
	for _, e := range emitters {
		if e.Name() == format {
			return e, nil
		}
	}
	return nil, fmt.Errorf("results: unknown format %q (have %s)", format, strings.Join(Formats(), ", "))
}

// Emit renders the dataset in the named format and returns it as a string.
func Emit(d *Dataset, format string) (string, error) {
	e, err := Lookup(format)
	if err != nil {
		return "", err
	}
	out, err := e.Append(nil, d)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// textEmitter reproduces the legacy aligned-table rendering byte-for-byte:
// "== id: title ==", padded header, dashed rule, padded rows, "note:" lines.
// Column widths are byte lengths while padding counts runes, as the legacy
// %-*s verb did.
type textEmitter struct{}

// Name implements Emitter.
func (textEmitter) Name() string { return "text" }

// ContentType implements Emitter.
func (textEmitter) ContentType() string { return "text/plain; charset=utf-8" }

// Append implements Emitter. It never fails.
func (textEmitter) Append(dst []byte, d *Dataset) ([]byte, error) {
	dst = append(dst, "== "...)
	dst = append(dst, d.ID...)
	dst = append(dst, ": "...)
	dst = append(dst, d.Title...)
	dst = append(dst, " ==\n"...)

	var buf [16]int
	widths := buf[:0]
	for _, c := range d.Columns {
		widths = append(widths, len(c.Name))
	}
	for _, row := range d.Rows {
		for i, c := range row {
			// Measure by rendering into dst's spare capacity; keep any
			// growth, drop the bytes.
			m := c.appendText(dst)
			widths[i] = max(widths[i], len(m)-len(dst))
			dst = m[:len(dst)]
		}
	}

	for i, c := range d.Columns {
		if i > 0 {
			dst = append(dst, "  "...)
		}
		dst = append(dst, c.Name...)
		dst = appendRepeat(dst, ' ', widths[i]-utf8.RuneCountInString(c.Name))
	}
	dst = append(dst, '\n')
	for i, w := range widths {
		if i > 0 {
			dst = append(dst, "  "...)
		}
		dst = appendRepeat(dst, '-', w)
	}
	dst = append(dst, '\n')
	for _, row := range d.Rows {
		for i, c := range row {
			if i > 0 {
				dst = append(dst, "  "...)
			}
			start := len(dst)
			dst = c.appendText(dst)
			dst = appendRepeat(dst, ' ', widths[i]-utf8.RuneCount(dst[start:]))
		}
		dst = append(dst, '\n')
	}
	for _, n := range d.Notes {
		dst = append(dst, "note: "...)
		dst = append(dst, n...)
		dst = append(dst, '\n')
	}
	return dst, nil
}

// appendRepeat appends n copies of b (none when n <= 0).
func appendRepeat(dst []byte, b byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, b)
	}
	return dst
}
