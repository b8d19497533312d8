package ldp_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	ldp "repro"
)

// goldenSeed loads a golden wire file as a fuzz seed; the corpus then mutates
// real, currently-valid encodings rather than guessing the gob grammar from
// scratch.
func goldenSeed(f *testing.F, name string) {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatalf("read golden seed (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	f.Add(b)
}

// FuzzLoadStrategy feeds arbitrary bytes to the strategy loader. Whatever
// the bytes, LoadStrategy must return a strategy or an error — never panic,
// never hand back a strategy with nonsensical dimensions or a non-finite ε.
// This fuzzer is what surfaced the Rows×Cols overflow and the NaN-ε holes the
// loader's bounds checks now close.
func FuzzLoadStrategy(f *testing.F) {
	goldenSeed(f, "strategy_v1.golden")
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ldp.LoadStrategy(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.Domain() <= 0 || s.Outputs() <= 0 {
			t.Fatalf("accepted strategy with dimensions %dx%d", s.Outputs(), s.Domain())
		}
		if !(s.Eps > 0) {
			t.Fatalf("accepted strategy with ε=%v", s.Eps)
		}
		// An accepted strategy must survive a save/load round trip.
		var buf bytes.Buffer
		if err := ldp.SaveStrategy(&buf, s); err != nil {
			t.Fatalf("accepted strategy failed to re-save: %v", err)
		}
		if _, err := ldp.LoadStrategy(&buf); err != nil {
			t.Fatalf("re-saved strategy failed to load: %v", err)
		}
	})
}

// FuzzLoadOracle is the same contract for the oracle loader: error or a
// well-formed oracle, nothing in between. It surfaced the NaN/±Inf ε hole in
// the oracle constructors (int(math.Round(exp(NaN))) is undefined) that
// freqoracle's ε validation now closes.
func FuzzLoadOracle(f *testing.F) {
	goldenSeed(f, "oracle_v1.golden")
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := ldp.LoadOracle(bytes.NewReader(data))
		if err != nil {
			return
		}
		if o.Domain() <= 0 {
			t.Fatalf("accepted oracle with domain %d", o.Domain())
		}
		if !(o.Epsilon() > 0) {
			t.Fatalf("accepted oracle with ε=%v", o.Epsilon())
		}
		if v := o.CountVariance(0, 1); !(v > 0) {
			t.Fatalf("accepted oracle with variance constant %v", v)
		}
		var buf bytes.Buffer
		if err := ldp.SaveOracle(&buf, o); err != nil {
			t.Fatalf("accepted oracle failed to re-save: %v", err)
		}
		if _, err := ldp.LoadOracle(&buf); err != nil {
			t.Fatalf("re-saved oracle failed to load: %v", err)
		}
	})
}
