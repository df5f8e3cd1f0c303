// JSON wire form: the lossless emitter. The wire structs below pin the
// schema and its field order; the emitter appends, by hand, the bytes
// json.MarshalIndent produces from them, so the emitted bytes are stable
// across runs and Go versions — the golden files under
// internal/experiments/testdata pin them. ParseJSON decodes through the
// same structs and inverts the emitter exactly; the round-trip property
// test asserts Dataset -> json -> Dataset -> text equals the original text
// for every registered experiment.
package results

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// wireColumn is the pinned JSON form of a Column.
type wireColumn struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// wireProvenance is the pinned JSON form of a Provenance.
type wireProvenance struct {
	Experiment string `json:"experiment"`
	Platform   string `json:"platform"`
	Scenario   string `json:"scenario"`
	Quick      bool   `json:"quick"`
	// Always false (the policy is removed) so schema-1 bytes stay fixed.
	FastWarmup bool   `json:"fastwarmup"`
	Seed       uint64 `json:"seed"`
	// Fidelity is omitted when empty (exact), keeping exact-run wire bytes
	// identical to the pre-fidelity schema.
	Fidelity string `json:"fidelity,omitempty"`
}

// wireDataset is the pinned top-level JSON form of a Dataset.
type wireDataset struct {
	Schema     int            `json:"schema"`
	ID         string         `json:"id"`
	Title      string         `json:"title"`
	Columns    []wireColumn   `json:"columns"`
	Rows       [][]Cell       `json:"rows"`
	Notes      []string       `json:"notes"`
	Provenance wireProvenance `json:"provenance"`
}

// jsonSchemaVersion is bumped whenever the wire form changes shape.
const jsonSchemaVersion = 1

// MarshalJSON encodes the cell as a single-kind object: {"s":…} for strings,
// {"i":…} for ints, {"f":…,"prec":…} for floats, {"pct":…,"prec":…} for
// percents (value in percent points). Numbers keep Go's shortest
// round-trippable float encoding, so nothing is lost to display precision.
func (c Cell) MarshalJSON() ([]byte, error) {
	switch c.Kind {
	case KindInt:
		return json.Marshal(struct {
			I int64 `json:"i"`
		}{c.Int})
	case KindFloat:
		return json.Marshal(struct {
			F    float64 `json:"f"`
			Prec int     `json:"prec"`
		}{c.Float, c.Prec})
	case KindPercent:
		return json.Marshal(struct {
			Pct  float64 `json:"pct"`
			Prec int     `json:"prec"`
		}{c.Float, c.Prec})
	}
	return json.Marshal(struct {
		S string `json:"s"`
	}{c.Str})
}

// UnmarshalJSON inverts MarshalJSON; exactly one of the kind keys must be
// present.
func (c *Cell) UnmarshalJSON(data []byte) error {
	var w struct {
		S    *string  `json:"s"`
		I    *int64   `json:"i"`
		F    *float64 `json:"f"`
		Pct  *float64 `json:"pct"`
		Prec int      `json:"prec"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	set := 0
	for _, ok := range []bool{w.S != nil, w.I != nil, w.F != nil, w.Pct != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("results: cell %s must carry exactly one of s/i/f/pct", data)
	}
	switch {
	case w.S != nil:
		*c = Cell{Kind: KindString, Str: *w.S}
	case w.I != nil:
		*c = Cell{Kind: KindInt, Int: *w.I}
	case w.F != nil:
		*c = Cell{Kind: KindFloat, Float: *w.F, Prec: w.Prec}
	default:
		*c = Cell{Kind: KindPercent, Float: *w.Pct, Prec: w.Prec}
	}
	return nil
}

// jsonEmitter writes the dataset's pinned, indented JSON wire form: the
// bytes json.MarshalIndent(wireDataset, "", "  ") plus a newline produce,
// appended by hand.
type jsonEmitter struct{}

// Name implements Emitter.
func (jsonEmitter) Name() string { return "json" }

// ContentType implements Emitter.
func (jsonEmitter) ContentType() string { return "application/json" }

// Append implements Emitter. It fails on a NaN or infinite cell, which
// JSON cannot carry, with the error encoding/json reports.
func (jsonEmitter) Append(dst []byte, d *Dataset) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '{')
	dst = appendJSONKey(dst, 1, "schema")
	dst = strconv.AppendInt(dst, jsonSchemaVersion, 10)
	dst = append(dst, ',')
	dst = appendJSONKey(dst, 1, "id")
	dst = appendJSONString(dst, d.ID)
	dst = append(dst, ',')
	dst = appendJSONKey(dst, 1, "title")
	dst = appendJSONString(dst, d.Title)
	dst = append(dst, ',')

	dst = appendJSONKey(dst, 1, "columns")
	dst = append(dst, '[')
	for i, c := range d.Columns {
		dst = appendJSONElem(dst, i, 2)
		dst = append(dst, '{')
		dst = appendJSONKey(dst, 3, "name")
		dst = appendJSONString(dst, c.Name)
		dst = append(dst, ',')
		dst = appendJSONKey(dst, 3, "unit")
		dst = appendJSONString(dst, c.Unit)
		dst = appendJSONClose(dst, 2, '}')
	}
	dst = appendJSONArrayEnd(dst, len(d.Columns), 1)
	dst = append(dst, ',')

	dst = appendJSONKey(dst, 1, "rows")
	dst = append(dst, '[')
	for i, row := range d.Rows {
		dst = appendJSONElem(dst, i, 2)
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, c := range row {
			dst = appendJSONElem(dst, j, 3)
			var err error
			if dst, err = appendJSONCell(dst, c); err != nil {
				return dst[:start], err
			}
		}
		dst = appendJSONArrayEnd(dst, len(row), 2)
	}
	dst = appendJSONArrayEnd(dst, len(d.Rows), 1)
	dst = append(dst, ',')

	dst = appendJSONKey(dst, 1, "notes")
	dst = append(dst, '[')
	for i, n := range d.Notes {
		dst = appendJSONElem(dst, i, 2)
		dst = appendJSONString(dst, n)
	}
	dst = appendJSONArrayEnd(dst, len(d.Notes), 1)
	dst = append(dst, ',')

	p := d.Prov
	dst = appendJSONKey(dst, 1, "provenance")
	dst = append(dst, '{')
	dst = appendJSONKey(dst, 2, "experiment")
	dst = appendJSONString(dst, p.ExperimentID)
	dst = append(dst, ',')
	dst = appendJSONKey(dst, 2, "platform")
	dst = appendJSONString(dst, p.Platform)
	dst = append(dst, ',')
	dst = appendJSONKey(dst, 2, "scenario")
	dst = appendJSONString(dst, p.Scenario)
	dst = append(dst, ',')
	dst = appendJSONKey(dst, 2, "quick")
	dst = strconv.AppendBool(dst, p.Quick)
	dst = append(dst, ',')
	dst = appendJSONKey(dst, 2, "fastwarmup")
	dst = append(dst, "false,"...)
	dst = appendJSONKey(dst, 2, "seed")
	dst = strconv.AppendUint(dst, p.Seed, 10)
	if p.Fidelity != "" {
		dst = append(dst, ',')
		dst = appendJSONKey(dst, 2, "fidelity")
		dst = appendJSONString(dst, p.Fidelity)
	}
	dst = appendJSONClose(dst, 1, '}')
	dst = appendJSONClose(dst, 0, '}')
	return append(dst, '\n'), nil
}

// appendJSONCell appends one cell's object (MarshalJSON's form, indented
// at depth 3 inside its row).
func appendJSONCell(dst []byte, c Cell) ([]byte, error) {
	dst = append(dst, '{')
	switch c.Kind {
	case KindInt:
		dst = appendJSONKey(dst, 4, "i")
		dst = strconv.AppendInt(dst, c.Int, 10)
	case KindFloat, KindPercent:
		if math.IsNaN(c.Float) || math.IsInf(c.Float, 0) {
			return dst, errors.New("json: error calling MarshalJSON for type results.Cell: json: unsupported value: " +
				strconv.FormatFloat(c.Float, 'g', -1, 64))
		}
		key := "f"
		if c.Kind == KindPercent {
			key = "pct"
		}
		dst = appendJSONKey(dst, 4, key)
		dst = appendJSONFloat(dst, c.Float)
		dst = append(dst, ',')
		dst = appendJSONKey(dst, 4, "prec")
		dst = strconv.AppendInt(dst, int64(c.Prec), 10)
	default:
		dst = appendJSONKey(dst, 4, "s")
		dst = appendJSONString(dst, c.Str)
	}
	return appendJSONClose(dst, 3, '}'), nil
}

// appendJSONIndent starts a new line at the given nesting depth.
func appendJSONIndent(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, "  "...)
	}
	return dst
}

// appendJSONKey starts an object member at depth: `"key": `. Keys are
// fixed ASCII names that need no escaping.
func appendJSONKey(dst []byte, depth int, key string) []byte {
	dst = appendJSONIndent(dst, depth)
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':', ' ')
}

// appendJSONElem starts array element i at depth, after a comma unless it
// is the first.
func appendJSONElem(dst []byte, i, depth int) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	return appendJSONIndent(dst, depth)
}

// appendJSONClose closes a non-empty object or array on its own line at
// depth.
func appendJSONClose(dst []byte, depth int, close byte) []byte {
	return append(appendJSONIndent(dst, depth), close)
}

// appendJSONArrayEnd closes an array of n elements whose '[' is already
// written: an empty one stays "[]" on the same line, as MarshalIndent
// writes it.
func appendJSONArrayEnd(dst []byte, n, depth int) []byte {
	if n == 0 {
		return append(dst, ']')
	}
	return appendJSONClose(dst, depth, ']')
}

// appendJSONString appends s as a quoted JSON string escaped exactly as
// encoding/json does: '"' and '\\' backslashed; \b \f \n \r \t short
// forms; other control bytes and the HTML-sensitive <, > and & as \u00XX;
// each invalid UTF-8 byte as \ufffd; U+2028 and U+2029 as \u2028 and
// \u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite f as encoding/json encodes a float64:
// shortest round-trip digits, in exponent form below 1e-6 and from 1e21
// up, with a one-digit exponent left unpadded (1e-07 becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// ParseJSON decodes a dataset from its JSON wire form — the inverse of the
// json emitter, used by downstream consumers (and the round-trip tests) to
// recover typed cells from served results.
func ParseJSON(data []byte) (*Dataset, error) {
	var w wireDataset
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("results: bad dataset JSON: %w", err)
	}
	if w.Schema != jsonSchemaVersion {
		return nil, fmt.Errorf("results: unsupported dataset schema %d (want %d)", w.Schema, jsonSchemaVersion)
	}
	if w.Provenance.FastWarmup {
		return nil, fmt.Errorf("results: dataset %q was produced with the removed fastwarmup (convergence-based warmup) policy, which this build cannot reproduce", w.ID)
	}
	d := New(w.ID, w.Title)
	for _, c := range w.Columns {
		d.Columns = append(d.Columns, Column{Name: c.Name, Unit: c.Unit})
	}
	d.Rows = w.Rows
	d.Notes = w.Notes
	d.Prov = Provenance{
		ExperimentID: w.Provenance.Experiment,
		Platform:     w.Provenance.Platform,
		Scenario:     w.Provenance.Scenario,
		Quick:        w.Provenance.Quick,
		Seed:         w.Provenance.Seed,
		Fidelity:     w.Provenance.Fidelity,
	}
	return d, nil
}
