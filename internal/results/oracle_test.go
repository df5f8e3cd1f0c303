package results

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
)

// The test oracle: the emitters as they were before the appenders, built
// on fmt, encoding/json and encoding/csv. Every appender must reproduce
// these bytes (and the json oracle's error) for any dataset; the oracle
// tests and FuzzAppendMatchesOracle check it.

// OracleEmit renders d through the oracle emitter of the named format. It
// is exported for the registry-wide test in the external test package.
func OracleEmit(d *Dataset, format string) (string, error) {
	switch format {
	case "text":
		return oracleText(d), nil
	case "json":
		return oracleJSON(d)
	case "csv":
		return oracleCSV(d), nil
	}
	return "", fmt.Errorf("oracle: unknown format %q", format)
}

// oracleCellText is the cell's text rendering through fmt's verbs.
func oracleCellText(c Cell) string {
	switch c.Kind {
	case KindInt:
		return fmt.Sprintf("%d", c.Int)
	case KindFloat:
		return fmt.Sprintf("%.*f", c.Prec, c.Float)
	case KindPercent:
		return fmt.Sprintf("%.*f%%", c.Prec, c.Float)
	}
	return c.Str
}

// TextRows renders every cell through the oracle's fmt-based cell text —
// the legacy [][]string form.
func (d *Dataset) TextRows() [][]string {
	out := make([][]string, len(d.Rows))
	for i, row := range d.Rows {
		r := make([]string, len(row))
		for j, c := range row {
			r[j] = oracleCellText(c)
		}
		out[i] = r
	}
	return out
}

// ColumnWidths computes the per-column display width of a header row plus
// data rows: the maximum cell byte length per column index.
func ColumnWidths(headers []string, rows [][]string) []int {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	return widths
}

// oracleText is the fmt-based aligned-table rendering.
func oracleText(d *Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", d.ID, d.Title)
	headers := d.Headers()
	rows := d.TextRows()
	widths := ColumnWidths(headers, rows)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, width := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", width))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
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

// oracleJSON is encoding/json's indented rendering of the wire form.
func oracleJSON(d *Dataset) (string, error) {
	out, err := json.MarshalIndent(d.wire(), "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// oracleCSV is encoding/csv's rendering of the header and raw cells.
func oracleCSV(d *Dataset) string {
	var b strings.Builder
	cw := csv.NewWriter(&b)
	// A strings.Builder never fails, so neither does the csv writer.
	_ = cw.Write(d.Headers())
	for _, row := range d.Rows {
		rec := make([]string, len(row))
		for i, c := range row {
			rec[i] = c.Raw()
		}
		_ = cw.Write(rec)
	}
	cw.Flush()
	return b.String()
}
