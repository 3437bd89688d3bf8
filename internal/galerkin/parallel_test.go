package galerkin

import (
	"math"
	"testing"

	"opera/internal/factor"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/pce"
	"opera/internal/sparse"
)

// TestSumTermsSingleTermNoAlias is the regression test for the aliasing
// bug where a single-term list returned the term's own matrix: mutating
// the sum then silently corrupted the system definition.
func TestSumTermsSingleTermNoAlias(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 4)
	tr.Add(0, 0, 2)
	tr.Add(1, 1, 3)
	tr.Add(0, 1, -1)
	tr.Add(1, 0, -1)
	a := tr.Compile()
	before := append([]float64(nil), a.Val...)

	sum := sumTerms([]Term{{A: a}}, 2)
	if sum == a {
		t.Fatal("sumTerms returned the term's own matrix")
	}
	for i := range sum.Val {
		sum.Val[i] *= 100
	}
	for i, v := range a.Val {
		if v != before[i] {
			t.Fatalf("term matrix mutated through the sum: Val[%d] = %g, want %g", i, v, before[i])
		}
	}

	// Empty and multi-term lists must also hand back private storage.
	if z := sumTerms(nil, 2); z.NNZ() != 0 || z.Rows != 2 {
		t.Errorf("empty sum: %dx%d with %d nnz", z.Rows, z.Cols, z.NNZ())
	}
	two := sumTerms([]Term{{A: a}, {A: a}}, 2)
	if two == a {
		t.Fatal("two-term sum aliases the input")
	}
}

// rhsOnlySystem builds a grid whose variations enter only the RHS, so
// Solve takes the §5.1 decoupled path.
func rhsOnlySystem(t *testing.T, order int) *System {
	t.Helper()
	nl := smallGrid()
	for i := range nl.Resistors {
		nl.Resistors[i].OnDie = false
	}
	for i := range nl.Pads {
		nl.Pads[i].OnDie = false
	}
	for i := range nl.Caps {
		nl.Caps[i].GateFrac = 0
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	gsys, err := FromMNA(sys, pce.NewHermiteBasis(2, order))
	if err != nil {
		t.Fatal(err)
	}
	if !gsys.RHSOnly() {
		t.Fatal("system should be RHS-only")
	}
	return gsys
}

// collectCoeffs runs Solve and copies every step's coefficient blocks.
func collectCoeffs(t *testing.T, gsys *System, opts Options) (snaps [][][]float64, res Result) {
	t.Helper()
	snaps = make([][][]float64, opts.Steps+1)
	res, err := Solve(gsys, opts, func(step int, _ float64, coeffs [][]float64) {
		cp := make([][]float64, len(coeffs))
		for m := range coeffs {
			cp[m] = append([]float64(nil), coeffs[m]...)
		}
		snaps[step] = cp
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res
}

func assertIdenticalCoeffs(t *testing.T, ref, got [][][]float64, workers int) {
	t.Helper()
	for s := range ref {
		for m := range ref[s] {
			for i := range ref[s][m] {
				if got[s][m][i] != ref[s][m][i] {
					t.Fatalf("workers=%d: coefficient differs at step %d basis %d node %d: %.17g vs %.17g",
						workers, s, m, i, got[s][m][i], ref[s][m][i])
				}
			}
		}
	}
}

// TestDecoupledParallelDeterminism checks the tentpole contract on the
// decoupled fast path: chaos coefficients are bit-identical for any
// worker count.
func TestDecoupledParallelDeterminism(t *testing.T) {
	gsys := rhsOnlySystem(t, 2)
	base := Options{Step: tStep, Steps: 12}
	var ref [][][]float64
	for _, w := range []int{1, 2, 4} {
		opts := base
		opts.Workers = w
		snaps, res := collectCoeffs(t, gsys, opts)
		if !res.Decoupled {
			t.Fatalf("workers=%d: decoupled path not taken", w)
		}
		if ref == nil {
			ref = snaps
			continue
		}
		assertIdenticalCoeffs(t, ref, snaps, w)
	}
}

// TestCoupledParallelDeterminism checks the same contract on the
// coupled path, whose parallel surface is the row-partitioned block
// apply C̃·x.
func TestCoupledParallelDeterminism(t *testing.T) {
	sys, err := mna.Build(smallGrid(), mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	gsys, err := FromMNA(sys, pce.NewHermiteBasis(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Step: tStep, Steps: 10, ForceCoupled: true}
	var ref [][][]float64
	for _, w := range []int{1, 2, 4} {
		opts := base
		opts.Workers = w
		snaps, res := collectCoeffs(t, gsys, opts)
		if res.Decoupled {
			t.Fatalf("workers=%d: expected the coupled path", w)
		}
		if ref == nil {
			ref = snaps
			continue
		}
		assertIdenticalCoeffs(t, ref, snaps, w)
	}
}

// TestSolveRespectsWorkersOption smoke-tests that an absurd worker
// count is clamped and still solves correctly.
func TestSolveRespectsWorkersOption(t *testing.T) {
	gsys := rhsOnlySystem(t, 1)
	opts := Options{Step: tStep, Steps: 5, Workers: 1000}
	if _, err := Solve(gsys, opts, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCoupledFactorDeterminism checks the row-split contract of the
// coupled factor: on a grid whose root supernode is large enough to be
// split across the pool, the companion factor and the coupled
// trajectory are bit-identical at 1, 2 and 4 workers.
func TestCoupledFactorDeterminism(t *testing.T) {
	nl, err := grid.Build(grid.DefaultSpec(1500, 3))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	gsys, err := FromMNA(sys, pce.NewHermiteBasis(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Step: tStep, Steps: 4, ForceCoupled: true}
	pattern := unionScalarPattern(gsys)
	sym := factor.CholAnalyzeSupernodal(pattern, base.Ordering.Perm(pattern), -1, gsys.Basis.Size())
	if sym.SplitSupernodes() == 0 {
		t.Fatal("no supernode reaches the split size; the grid is too small to test the row split")
	}
	comp, _, _ := assembleBlocks(gsys, pattern, base.Step)
	var refL []float64
	var ref [][][]float64
	for _, w := range []int{1, 2, 4} {
		f, err := sym.FactorizeBlock(comp, nil, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		l := f.L().Val
		opts := base
		opts.Workers = w
		snaps, res := collectCoeffs(t, gsys, opts)
		if res.Factorer != "supernodal" {
			t.Fatalf("workers=%d: factored with %s", w, res.Factorer)
		}
		if ref == nil {
			refL, ref = l, snaps
			continue
		}
		for i := range l {
			if math.Float64bits(l[i]) != math.Float64bits(refL[i]) {
				t.Fatalf("workers=%d: factor entry %d differs: %.17g vs %.17g", w, i, l[i], refL[i])
			}
		}
		assertIdenticalCoeffs(t, ref, snaps, w)
	}
}
