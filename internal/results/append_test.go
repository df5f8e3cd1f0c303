package results

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkAppendMatchesOracle asserts that every registered appender renders d
// to the oracle's bytes after a prefix it leaves alone, and that the json
// appender fails exactly when the oracle does, with the same error and
// with dst handed back at its original length.
func checkAppendMatchesOracle(t *testing.T, d *Dataset) {
	t.Helper()
	const prefix = "prefix:"
	for _, format := range Formats() {
		want, wantErr := OracleEmit(d, format)
		e, err := Lookup(format)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Append([]byte(prefix), d)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: append error %v, oracle error %v\ndataset: %#v", format, err, wantErr, d)
		}
		if err != nil {
			if string(got) != prefix {
				t.Fatalf("%s: failed append returned %q, want the bare prefix", format, got)
			}
			continue
		}
		if !strings.HasPrefix(string(got), prefix) || string(got[len(prefix):]) != want {
			t.Fatalf("%s: append diverges from the oracle\n--- oracle ---\n%q\n--- append ---\n%q\ndataset: %#v",
				format, want, got, d)
		}
	}
}

// TestAppendMatchesOracle covers the hand-picked corners: the sample, an
// empty dataset, nil and empty rows, ragged (short) rows, unknown kinds,
// fidelity provenance, and strings that need escaping or quoting.
func TestAppendMatchesOracle(t *testing.T) {
	checkAppendMatchesOracle(t, sample())
	checkAppendMatchesOracle(t, &Dataset{})
	checkAppendMatchesOracle(t, New("empty", "no rows", Column{Name: "A"}))

	d := New("edge <&> \u2028", "tab\there \"q\" \\ \x00 \x7f \xff\xfe é 日本",
		Column{Name: " lead", Unit: "\u2029"}, Column{Name: "a,b", Unit: "<u>"}, Column{Name: "é日"}, Column{Name: `\.`})
	d.AddRow(Str("line\nbreak"), Num(math.Copysign(0, -1), 2), Pct(1e-9), Int(math.MinInt64))
	d.AddRow()
	d.Rows = append(d.Rows, []Cell{})
	d.AddRow(Str("\u00a0nbsp"), Num(1e21, 0))
	d.AddRow(Cell{Kind: Kind(9), Str: "odd\r\"kind\""}, Num(123456789.125, 17), PctPoints(99.95, 1), Num(5e-324, 3))
	d.AddRow(Num(0.1, -1), Num(2.5, 1000001), Str(""), Str("x\xc3"))
	d.AddNote("note with <html> & \"quotes\"")
	d.AddNote("")
	d.Prov = Provenance{ExperimentID: "e", Platform: "p", Scenario: "s/x=1", Quick: true, Seed: math.MaxUint64, Fidelity: "fast"}
	checkAppendMatchesOracle(t, d)
}

// TestNonFiniteCells pins what each format does with NaN and infinities:
// json refuses them (JSON has no such numbers), text renders fmt's NaN,
// +Inf and -Inf, and csv renders strconv's NaN and ±Inf.
func TestNonFiniteCells(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []Cell{Num(v, 1), PctPoints(v, 0)} {
			d := New("nf", "non-finite", Column{Name: "v"})
			d.AddRow(c)
			if out, err := Emit(d, "json"); err == nil || !strings.Contains(err.Error(), "unsupported value") || out != "" {
				t.Errorf("json of %v: out %q, err %v; want an unsupported-value error and no output", c, out, err)
			}
		}
	}
	d := New("nf", "non-finite", Column{Name: "a"}, Column{Name: "b"}, Column{Name: "c"})
	d.AddRow(Num(math.NaN(), 2), Num(math.Inf(1), 1), Num(math.Inf(-1), 0))
	text, err := Emit(d, "text")
	if err != nil || !strings.Contains(text, "\nNaN  +Inf  -Inf\n") {
		t.Errorf("text = %q, %v; want the row NaN  +Inf  -Inf", text, err)
	}
	csv, err := Emit(d, "csv")
	if err != nil || csv != "a,b,c\nNaN,+Inf,-Inf\n" {
		t.Errorf("csv = %q, %v; want NaN,+Inf,-Inf", csv, err)
	}
}

// TestAppendMatchesOracleRandom runs the fuzz target's check over a fixed
// set of pseudo-random inputs, so plain go test covers hundreds of
// datasets without the fuzzing engine.
func TestAppendMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		checkAppendMatchesOracle(t, fuzzDataset(data))
	}
}

// FuzzAppendMatchesOracle decodes the input into a dataset and checks
// every appender against the oracle.
func FuzzAppendMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x02\x01\x00abc\x05\x06\x07\x08\x09\x0a\x0b"))
	f.Add([]byte(strings.Repeat("\xff\x01<\xe2\x80\xa8\x00", 16)))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64+32*i)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAppendMatchesOracle(t, fuzzDataset(data))
	})
}

// fuzzPieces are string fragments that exercise escaping and quoting: HTML
// characters, control bytes, JSON's short escapes, invalid UTF-8, the JSONP
// separators, CSV specials and multi-byte runes (which pad by rune count).
var fuzzPieces = []string{
	"<", ">", "&", "\"", "\\", "\x00", "\x1f", "\x7f", "\b", "\f", "\n", "\r", "\t",
	"\xff", "\xc3", "\xe2\x80", "\u2028", "\u2029", "\ufffd", ",", " ", "\u0085", "\u00a0", "\u3000",
	`\.`, "é", "日本", "😀", "ns", "GB/s", "%", "plain",
}

// fuzzFloats are the finite floats at encoding/json's and strconv's
// boundaries: signed zero, the 'f'/'e' switch at 1e-6 and 1e21, the
// exponent cleanup, subnormals, the extremes, and rounding carries.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.99999e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 123e300,
	5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
	0.1, 9.995, -9.995, 0.5, 41.03125, 176.5, 1 << 53, 1e-300,
}

// fuzzSource turns fuzz bytes into dataset choices; an exhausted source
// yields zeros, so every input decodes to some dataset.
type fuzzSource struct{ data []byte }

func (s *fuzzSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *fuzzSource) intn(n int) int { return int(s.byte()) % n }

func (s *fuzzSource) uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = s.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (s *fuzzSource) str() string {
	switch s.intn(4) {
	case 0: // raw bytes: anything, valid UTF-8 or not
		n := min(s.intn(12), len(s.data))
		out := string(s.data[:n])
		s.data = s.data[n:]
		return out
	case 1:
		var b strings.Builder
		for n := s.intn(5); n >= 0; n-- {
			b.WriteString(fuzzPieces[s.intn(len(fuzzPieces))])
		}
		return b.String()
	case 2:
		return ""
	}
	return fuzzPieces[s.intn(len(fuzzPieces))]
}

func (s *fuzzSource) float() float64 {
	switch r := s.intn(32); {
	case r == 0:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[s.intn(3)]
	case r < 16:
		return fuzzFloats[s.intn(len(fuzzFloats))]
	}
	return math.Float64frombits(s.uint64())
}

func (s *fuzzSource) prec() int {
	if r := s.intn(16); r < 14 {
		return r % 5
	}
	return []int{-1, 17, 1000001}[s.intn(3)]
}

func (s *fuzzSource) cell() Cell {
	switch s.intn(5) {
	case 0:
		return Str(s.str())
	case 1:
		return Int(int64(s.uint64()) >> (s.intn(64)))
	case 2:
		return Num(s.float(), s.prec())
	case 3:
		return PctPoints(s.float(), s.prec())
	}
	return Cell{Kind: Kind(4 + s.intn(8)), Str: s.str()}
}

// fuzzDataset decodes a dataset whose rows never outgrow its columns (the
// Dataset contract), with nil and empty rows, notes and full provenance.
func fuzzDataset(data []byte) *Dataset {
	s := &fuzzSource{data: data}
	d := New(s.str(), s.str())
	for n := s.intn(6); n > 0; n-- {
		d.Columns = append(d.Columns, Column{Name: s.str(), Unit: s.str()})
	}
	for n := s.intn(6); n > 0; n-- {
		if s.intn(16) == 0 {
			d.Rows = append(d.Rows, nil)
			continue
		}
		row := make([]Cell, s.intn(len(d.Columns)+1))
		for j := range row {
			row[j] = s.cell()
		}
		d.Rows = append(d.Rows, row)
	}
	for n := s.intn(3); n > 0; n-- {
		d.Notes = append(d.Notes, s.str())
	}
	d.Prov = Provenance{ExperimentID: s.str(), Platform: s.str(), Scenario: s.str(), Quick: s.intn(2) == 1, Seed: s.uint64()}
	if s.intn(2) == 1 {
		d.Prov.Fidelity = s.str()
	}
	return d
}
