package factor

import (
	"fmt"

	"opera/internal/sparse"
)

// Kernel selects the numeric Cholesky kernel. The supernodal blocked
// kernel is the default: it factors the same pattern as the scalar
// up-looking kernel but runs on dense column-major panels with rank-k
// updates, and parallelizes independent elimination-tree subtrees.
// The scalar kernel remains available as the reference implementation
// and as an ablation switch.
type Kernel int

// Kernel choices.
const (
	KernelSupernodal Kernel = iota // blocked panels (default)
	KernelScalar                   // scalar up-looking reference
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelSupernodal:
		return "supernodal"
	case KernelScalar:
		return "scalar"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ScalarFactor is a numeric factorization of a scalar (n×n) SPD system
// that can serve solves. Both *CholFactor and *SuperFactor implement
// it; SolveToWithScratch is allocation-free on both, which is what the
// Monte Carlo and transient hot loops rely on.
type ScalarFactor interface {
	SolveTo(x, b []float64)
	SolveToWithScratch(x, b, y []float64)
}

// Analysis is a reusable symbolic Cholesky analysis, independent of
// the numeric kernel. One analysis serves any number of numeric
// factorizations of matrices sharing the pattern. The cost metrics
// (LNNZ, FlopEstimate, FillRatio) use the scalar L pattern for both
// kernels, so they are comparable across kernels at equal permutation.
type Analysis interface {
	Size() int
	Permutation() []int
	LNNZ() int
	FlopEstimate() int64
	FillRatio() float64
	// KernelName names the numeric kernel ("cholesky" or "supernodal")
	// for telemetry rungs.
	KernelName() string
	// Refactorize numerically factors a; reuse, when non-nil and
	// produced by this analysis, recycles the previous factor's storage.
	Refactorize(a *sparse.Matrix, reuse ScalarFactor) (ScalarFactor, error)
}

// Size reports the analyzed dimension.
func (s *CholSymbolic) Size() int { return s.N }

// Permutation returns the fill-reducing permutation (nil = natural).
func (s *CholSymbolic) Permutation() []int { return s.Perm }

// KernelName names the scalar kernel's telemetry rung.
func (s *CholSymbolic) KernelName() string { return "cholesky" }

// Refactorize adapts Factorize to the kernel-generic Analysis
// interface.
func (s *CholSymbolic) Refactorize(a *sparse.Matrix, reuse ScalarFactor) (ScalarFactor, error) {
	var r *CholFactor
	if cf, ok := reuse.(*CholFactor); ok {
		r = cf
	}
	f, err := s.Factorize(a, r)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Analyze performs symbolic analysis for the selected kernel. The
// supernodal analysis uses the default amalgamation threshold.
func Analyze(a *sparse.Matrix, perm []int, k Kernel) Analysis {
	if k == KernelScalar {
		return CholAnalyze(a, perm)
	}
	return CholAnalyzeSupernodal(a, perm, -1, 1)
}

// CholeskyKernel analyzes and factors in one call on the selected
// kernel — the kernel-generic sibling of Cholesky.
func CholeskyKernel(a *sparse.Matrix, perm []int, k Kernel) (ScalarFactor, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("factor: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if perm != nil && len(perm) != a.Rows {
		return nil, fmt.Errorf("factor: permutation length %d != %d", len(perm), a.Rows)
	}
	return Analyze(a, perm, k).Refactorize(a, nil)
}
