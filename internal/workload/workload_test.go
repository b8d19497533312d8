package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hadamard"
	"repro/internal/linalg"
)

// allWorkloads returns instances of every workload family at small sizes.
func allWorkloads() []Workload {
	mix := NewStacked("Mix", []Workload{NewHistogram(6), NewPrefix(6)}, []float64{1, 2})
	return []Workload{
		NewHistogram(7),
		NewPrefix(6),
		NewAllRange(5),
		NewAllMarginals(3),
		NewKWayMarginals(4, 2),
		NewKWayMarginals(4, 3),
		NewParity(3),
		NewWidthRange(8, 3),
		mix,
		NewProduct(NewPrefix(3), NewAllRange(3)),
		NewProduct(mix, NewParity(1)),
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// The four checks below hold each closed form (Gram, FrobNorm2, MatVec,
// TMatVec) to the workload's rows: Materialize is QueryRow collected, and
// TestQueryRowLiteral holds QueryRow to entries written out by hand.

func checkGram(t *testing.T, w Workload) {
	t.Helper()
	gram := linalg.Gram(Materialize(w))
	if !linalg.ApproxEqual(gram, w.Gram(), 1e-9) {
		t.Fatalf("closed-form Gram != WᵀW\nclosed:%v\nexplicit:%v", w.Gram(), gram)
	}
}

func checkFrobNorm2(t *testing.T, w Workload) {
	t.Helper()
	want := Materialize(w).FrobNorm2()
	if math.Abs(w.FrobNorm2()-want) > 1e-9*(1+want) {
		t.Fatalf("FrobNorm2 = %v, want %v", w.FrobNorm2(), want)
	}
	// FrobNorm2 must equal tr(Gram).
	if math.Abs(w.FrobNorm2()-w.Gram().Trace()) > 1e-9*(1+want) {
		t.Fatalf("FrobNorm2 = %v != tr(Gram) = %v", w.FrobNorm2(), w.Gram().Trace())
	}
}

func checkMatVec(t *testing.T, rng *rand.Rand, w Workload) {
	t.Helper()
	x := randVec(rng, w.Domain())
	got := w.MatVec(x)
	want := Materialize(w).MulVec(x)
	if len(got) != w.Queries() {
		t.Fatalf("MatVec length %d, want %d", len(got), w.Queries())
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("MatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func checkTMatVec(t *testing.T, rng *rand.Rand, w Workload) {
	t.Helper()
	y := randVec(rng, w.Queries())
	got := w.TMatVec(y)
	want := Materialize(w).MulVecT(y)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("TMatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestGramMatchesExplicit is the central consistency test: every closed-form
// Gram matrix must equal WᵀW of the workload's collected rows.
func TestGramMatchesExplicit(t *testing.T) {
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) { checkGram(t, w) })
	}
}

func TestFrobNorm2MatchesExplicit(t *testing.T) {
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) { checkFrobNorm2(t, w) })
	}
}

func TestMatVecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) { checkMatVec(t, rng, w) })
	}
}

func TestTMatVecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) { checkTMatVec(t, rng, w) })
	}
}

// TestQueryRowLiteral holds QueryRow — the only statement of a family's
// entries — to rows written out by hand at tiny n, bit for bit (so the sign
// of a zero is part of what is pinned).
func TestQueryRowLiteral(t *testing.T) {
	h4, err := hadamard.Matrix(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		w    Workload
		want [][]float64
	}{
		{NewHistogram(2), [][]float64{{1, 0}, {0, 1}}},
		{NewPrefix(3), [][]float64{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}}},
		{NewAllRange(3), [][]float64{
			{1, 0, 0}, {1, 1, 0}, {1, 1, 1}, // [0,0] [0,1] [0,2]
			{0, 1, 0}, {0, 1, 1}, // [1,1] [1,2]
			{0, 0, 1}, // [2,2]
		}},
		{NewKWayMarginals(2, 1), [][]float64{
			{1, 0, 1, 0}, {0, 1, 0, 1}, // attribute 0 = 0, = 1
			{1, 1, 0, 0}, {0, 0, 1, 1}, // attribute 1 = 0, = 1
		}},
		{NewParity(2), [][]float64{h4.Row(0), h4.Row(1), h4.Row(2), h4.Row(3)}},
		{NewWidthRange(4, 2), [][]float64{{1, 1, 0, 0}, {0, 1, 1, 0}, {0, 0, 1, 1}}},
		{NewStacked("Weighted", []Workload{NewHistogram(2), NewParity(1)}, []float64{2, 0.5}),
			[][]float64{{2, 0}, {0, 2}, {0.5, 0.5}, {0.5, -0.5}}},
		// A zero left-factor entry leaves its block +0 (linalg.Kron's rule),
		// not the −0 that 0·(−1) would give in row 1.
		{NewProduct(NewPrefix(2), NewParity(1)), [][]float64{
			{1, 1, 0, 0}, {1, -1, 0, 0},
			{1, 1, 1, 1}, {1, -1, 1, -1},
		}},
	}
	for _, c := range cases {
		t.Run(c.w.Name(), func(t *testing.T) {
			if c.w.Queries() != len(c.want) {
				t.Fatalf("Queries() = %d, want %d", c.w.Queries(), len(c.want))
			}
			got := make([]float64, c.w.Domain())
			for i, want := range c.want {
				for j := range got {
					got[j] = math.NaN() // QueryRow must overwrite every entry
				}
				c.w.QueryRow(i, got)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("row %d = %v, want %v (entry %d differs in bits)", i, got, want, j)
					}
				}
			}
		})
	}
}

// Property: ⟨Wx, y⟩ = ⟨x, Wᵀy⟩ (adjoint identity) for all workloads.
func TestAdjointProperty(t *testing.T) {
	ws := allWorkloads()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := ws[rng.Intn(len(ws))]
		x := randVec(rng, w.Domain())
		y := randVec(rng, w.Queries())
		lhs := linalg.Dot(w.MatVec(x), y)
		rhs := linalg.Dot(x, w.TMatVec(y))
		return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixExample(t *testing.T) {
	// Example 2.2/2.4 of the paper: student grades.
	x := []float64{10, 20, 5, 0, 0}
	p := NewPrefix(5)
	got := p.MatVec(x)
	want := []float64{10, 30, 35, 35, 35}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix answers = %v, want %v", got, want)
		}
	}
}

func TestAllRangeQueries(t *testing.T) {
	a := NewAllRange(4)
	if a.Queries() != 10 {
		t.Fatalf("AllRange(4) queries = %d, want 10", a.Queries())
	}
	// Check rangeIndex covers 0..p-1 bijectively.
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			idx := a.rangeIndex(i, j)
			if idx < 0 || idx >= 10 || seen[idx] {
				t.Fatalf("rangeIndex(%d,%d) = %d invalid or duplicate", i, j, idx)
			}
			seen[idx] = true
		}
	}
}

func TestMarginalsCounts(t *testing.T) {
	m := NewAllMarginals(3)
	if m.Domain() != 8 {
		t.Fatalf("domain = %d, want 8", m.Domain())
	}
	if m.Queries() != 27 {
		t.Fatalf("AllMarginals(3) queries = %d, want 3^3 = 27", m.Queries())
	}
	k := NewKWayMarginals(4, 2)
	if k.Queries() != 6*4 {
		t.Fatalf("2-way marginals over d=4: queries = %d, want 24", k.Queries())
	}
}

func TestMarginalsRowsAreIndicators(t *testing.T) {
	w := Materialize(NewAllMarginals(3))
	// Every row must be 0/1 valued, and the rows for each subset must
	// partition the domain (column sums within a subset block = 1).
	for i := 0; i < w.Rows(); i++ {
		for j := 0; j < w.Cols(); j++ {
			v := w.At(i, j)
			if v != 0 && v != 1 {
				t.Fatalf("marginal row %d has non-indicator value %v", i, v)
			}
		}
	}
	// Total of all entries: each of the 2^d subsets covers every user once.
	total := 0.0
	for _, v := range w.Data() {
		total += v
	}
	if total != float64(8*8) {
		t.Fatalf("total incidences = %v, want 64", total)
	}
}

func TestParityIsHadamard(t *testing.T) {
	w := Materialize(NewParity(3))
	// Rows orthogonal: WᵀW = n·I.
	gram := linalg.Gram(w)
	if !linalg.ApproxEqual(gram, linalg.Identity(8).Scale(8), 1e-9) {
		t.Fatal("Parity workload is not a Hadamard matrix")
	}
	// First row (S=0) is all ones.
	for j := 0; j < 8; j++ {
		if w.At(0, j) != 1 {
			t.Fatal("Parity row for S=∅ should be all ones")
		}
	}
}

func TestFWHTMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParity(4)
	x := randVec(rng, 16)
	got := p.MatVec(x)
	want := Materialize(p).MulVec(x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("FWHT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWidthRange(t *testing.T) {
	r := NewWidthRange(5, 2)
	if r.Queries() != 4 {
		t.Fatalf("queries = %d, want 4", r.Queries())
	}
	x := []float64{1, 2, 3, 4, 5}
	got := r.MatVec(x)
	want := []float64{3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window sums = %v, want %v", got, want)
		}
	}
}

func TestStackedWeights(t *testing.T) {
	s := NewStacked("Mix", []Workload{NewHistogram(3), NewHistogram(3)}, []float64{1, 3})
	x := []float64{1, 2, 3}
	got := s.MatVec(x)
	want := []float64{1, 2, 3, 3, 6, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stacked answers = %v, want %v", got, want)
		}
	}
	// Gram = (1 + 9) I.
	if !linalg.ApproxEqual(s.Gram(), linalg.Identity(3).Scale(10), 1e-12) {
		t.Fatal("stacked Gram wrong")
	}
}

func TestExplicitWorkload(t *testing.T) {
	m := linalg.NewFrom(2, 3, []float64{1, 0, 1, 0, 1, 0})
	e := NewExplicit("custom", m)
	if e.Queries() != 2 || e.Domain() != 3 {
		t.Fatal("explicit shape wrong")
	}
	if e.FrobNorm2() != 3 {
		t.Fatalf("FrobNorm2 = %v, want 3", e.FrobNorm2())
	}
	got := e.MatVec([]float64{1, 2, 3})
	if got[0] != 4 || got[1] != 2 {
		t.Fatalf("MatVec = %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range PaperWorkloads {
		w, err := ByName(name, 8)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if w.Domain() != 8 {
			t.Fatalf("ByName(%q) domain = %d", name, w.Domain())
		}
		if w.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, w.Name())
		}
	}
	if _, err := ByName("AllMarginals", 10); err == nil {
		t.Fatal("expected error for non-power-of-two marginals domain")
	}
	if _, err := ByName("nope", 8); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestByNameSmallDomain3Way(t *testing.T) {
	// 3-way marginals over d=2 should degrade to k=d.
	w, err := ByName("3-WayMarginals", 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Queries() != 4 { // C(2,2)·2² = 4
		t.Fatalf("queries = %d, want 4", w.Queries())
	}
}

func TestNuclearNorm(t *testing.T) {
	// Histogram: all singular values are 1 → nuclear norm = n.
	nn, err := linalg.NuclearNormFromGram(NewHistogram(6).Gram())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nn-6) > 1e-9 {
		t.Fatalf("nuclear norm = %v, want 6", nn)
	}
	// Parity over d bits: n singular values of √n → nuclear norm = n^1.5.
	nn, err = linalg.NuclearNormFromGram(NewParity(3).Gram())
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * math.Sqrt(8)
	if math.Abs(nn-want) > 1e-8 {
		t.Fatalf("Parity nuclear norm = %v, want %v", nn, want)
	}
}

// The hardness ordering implied by Theorem 5.6: Parity has larger nuclear
// norm than Histogram at the same domain size (paper's "hardest workload").
func TestHardnessOrdering(t *testing.T) {
	h, _ := linalg.NuclearNormFromGram(NewHistogram(8).Gram())
	p, _ := linalg.NuclearNormFromGram(NewParity(3).Gram())
	if p <= h {
		t.Fatalf("expected Parity (%v) harder than Histogram (%v)", p, h)
	}
}

func TestGramCached(t *testing.T) {
	w := NewPrefix(5)
	g1 := w.Gram()
	g2 := w.Gram()
	if g1 != g2 {
		t.Fatal("Gram not cached (different pointers)")
	}
}

func TestCompress(t *testing.T) {
	// u = 0b1011, s = 0b1010 selects bits 1 and 3 → values 1 and 1 → 0b11.
	if got := compress(0b1011, 0b1010, 4); got != 0b11 {
		t.Fatalf("compress = %b, want 11", got)
	}
	if got := compress(0b0001, 0b1010, 4); got != 0 {
		t.Fatalf("compress = %b, want 0", got)
	}
}

func TestBinom(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {9, 3, 84}, {3, 4, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := binom(c.n, c.k); got != c.want {
			t.Fatalf("binom(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}
