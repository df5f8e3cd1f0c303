package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"cxlmem"
	"cxlmem/internal/results"
)

// goldenDir is the golden corpus, relative to the checkout root the
// benchmark runs from. Every byte of it is the correctness contract.
const goldenDir = "internal/experiments/testdata/golden"

// goldenSeed is the seed the corpus was rendered at (quick mode).
const goldenSeed = 1

// quickSeed1 is the query suffix of a golden-corpus key.
const quickSeed1 = "&quick=true&seed=1"

// checkGolden compares one emission of id against its golden file. Formats
// without a pinned file pass when required is false (only text is pinned
// for every ID; json and csv only for a few).
func checkGolden(id, format string, got []byte, required bool) error {
	want, err := os.ReadFile(filepath.Join(goldenDir, id+"."+format))
	if errors.Is(err, os.ErrNotExist) && !required {
		return nil
	}
	if err != nil {
		return fmt.Errorf("golden gate: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("golden gate: %s %s output differs from %s.%s", id, format, id, format)
	}
	return nil
}

// gateHTTP fetches id at quick seed 1 through the daemon in text (checked
// against its golden file) and json, and records the parsed json as the
// reference shape of id's cold responses.
func (b *bench) gateHTTP(id string) error {
	text, err := b.get(runPath(id, "text", quickSeed1))
	if err != nil {
		return err
	}
	if err := checkGolden(id, "txt", text, true); err != nil {
		return err
	}
	js, err := b.get(runPath(id, "json", quickSeed1))
	if err != nil {
		return err
	}
	d, err := cxlmem.ParseDatasetJSON(js)
	if err != nil {
		return fmt.Errorf("golden gate: %s json: %w", id, err)
	}
	b.ref[id] = d
	return nil
}

// checkShape verifies a json response: it parses, carries ref's columns and
// row count, and names the requested seed in its provenance.
func checkShape(body []byte, ref *results.Dataset, seed uint64) (*results.Dataset, error) {
	d, err := cxlmem.ParseDatasetJSON(body)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if !reflect.DeepEqual(d.Columns, ref.Columns) {
		return nil, fmt.Errorf("%s: columns %v, golden has %v", ref.ID, d.Columns, ref.Columns)
	}
	if len(d.Rows) != len(ref.Rows) {
		return nil, fmt.Errorf("%s: %d rows, golden has %d", ref.ID, len(d.Rows), len(ref.Rows))
	}
	if d.Prov.Seed != seed {
		return nil, fmt.Errorf("%s: provenance seed %d, requested %d", ref.ID, d.Prov.Seed, seed)
	}
	return d, nil
}
