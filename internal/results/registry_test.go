package results_test

import (
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
)

// TestAppendMatchesOracleAllExperiments pins the appenders to the oracle on
// every registered experiment ID in every format, at the quick options the
// golden corpus uses and at the defaults.
func TestAppendMatchesOracleAllExperiments(t *testing.T) {
	quick := experiments.DefaultOptions()
	quick.Quick = true
	for _, o := range []struct {
		name string
		opts experiments.Options
	}{{"quick", quick}, {"default", experiments.DefaultOptions()}} {
		for _, e := range experiments.All() {
			t.Run(o.name+"/"+e.ID, func(t *testing.T) {
				d := e.Run(o.opts)
				for _, format := range results.Formats() {
					want, wantErr := results.OracleEmit(d, format)
					got, err := results.Emit(d, format)
					if err != nil || wantErr != nil {
						t.Fatalf("%s: emit error %v, oracle error %v", format, err, wantErr)
					}
					if got != want {
						t.Errorf("%s: appender diverges from the oracle\n--- oracle ---\n%s\n--- append ---\n%s", format, want, got)
					}
				}
			})
		}
	}
}

// BenchmarkEmit times each format's appender against its oracle over the
// quick dataset of every registered ID, the bodies cxlserve's hot hits
// render; one op renders them all.
func BenchmarkEmit(b *testing.B) {
	o := experiments.DefaultOptions()
	o.Quick = true
	var ds []*results.Dataset
	for _, e := range experiments.All() {
		ds = append(ds, e.Run(o))
	}
	for _, format := range results.Formats() {
		em, err := results.Lookup(format)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(format+"/append", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				for _, d := range ds {
					if buf, err = em.Append(buf[:0], d); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(format+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range ds {
					if _, err := results.OracleEmit(d, format); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
