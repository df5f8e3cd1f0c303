// CSV wire form: the data-only view for spreadsheets and plotting scripts.
// One header record of column names followed by one record per row; numeric
// cells are emitted at full precision (Cell.Raw — shortest float form that
// round-trips), not at display precision. Notes and provenance are
// intentionally dropped: they live in the json emitter, and comment lines
// would break strict CSV consumers. Field order is the column order, pinned
// by the dataset schema.
package results

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// csvEmitter writes the dataset's rows as RFC-4180 CSV, quoted and
// terminated exactly as encoding/csv's default Writer does.
type csvEmitter struct{}

// Name implements Emitter.
func (csvEmitter) Name() string { return "csv" }

// ContentType implements Emitter.
func (csvEmitter) ContentType() string { return "text/csv; charset=utf-8" }

// Append implements Emitter. It never fails.
func (csvEmitter) Append(dst []byte, d *Dataset) ([]byte, error) {
	for i, c := range d.Columns {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendCSVField(dst, c.Name)
	}
	dst = append(dst, '\n')
	for _, row := range d.Rows {
		for i, c := range row {
			if i > 0 {
				dst = append(dst, ',')
			}
			switch c.Kind {
			case KindInt, KindFloat, KindPercent:
				// Digits, sign, '.', exponent, NaN or Inf: never quoted.
				dst = c.appendRaw(dst)
			default:
				dst = appendCSVField(dst, c.Str)
			}
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}

// appendCSVField appends one field, quoted when encoding/csv would quote
// it (a comma, quote, CR or LF inside, a leading Unicode space, or the
// field `\.`), with inner quotes doubled.
func appendCSVField(dst []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, '"')
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// csvNeedsQuotes is encoding/csv's quoting rule for a comma delimiter.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` || strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}
