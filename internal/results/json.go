// JSON wire form: the lossless emitter. Field order is pinned by struct
// declaration order (encoding/json emits struct fields in order, never
// map-sorted), so the emitted bytes are stable across runs and Go versions —
// the golden files under internal/experiments/testdata pin them. ParseJSON
// inverts the emitter exactly; the round-trip property test asserts
// Dataset -> json -> Dataset -> text equals the original text for every
// registered experiment.
package results

import (
	"encoding/json"
	"fmt"
	"io"
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

// wire converts the dataset to its pinned JSON shape, normalizing nil slices
// to empty ones so the emitted bytes never flip between null and [].
func (d *Dataset) wire() wireDataset {
	w := wireDataset{
		Schema:  jsonSchemaVersion,
		ID:      d.ID,
		Title:   d.Title,
		Columns: make([]wireColumn, len(d.Columns)),
		Rows:    d.Rows,
		Notes:   d.Notes,
		Provenance: wireProvenance{
			Experiment: d.Prov.ExperimentID,
			Platform:   d.Prov.Platform,
			Scenario:   d.Prov.Scenario,
			Quick:      d.Prov.Quick,
			Seed:       d.Prov.Seed,
			Fidelity:   d.Prov.Fidelity,
		},
	}
	for i, c := range d.Columns {
		w.Columns[i] = wireColumn{Name: c.Name, Unit: c.Unit}
	}
	if w.Rows == nil {
		w.Rows = [][]Cell{}
	}
	if w.Notes == nil {
		w.Notes = []string{}
	}
	return w
}

// jsonEmitter writes the dataset's pinned, indented JSON wire form.
type jsonEmitter struct{}

// Name implements Emitter.
func (jsonEmitter) Name() string { return "json" }

// ContentType implements Emitter.
func (jsonEmitter) ContentType() string { return "application/json" }

// Emit implements Emitter.
func (jsonEmitter) Emit(w io.Writer, d *Dataset) error {
	out, err := json.MarshalIndent(d.wire(), "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
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
