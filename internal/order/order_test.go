package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"opera/internal/sparse"
)

// grid2D builds the pattern of a 2D 5-point Laplacian on an rows×cols
// mesh — the canonical power-grid-like test graph.
func grid2D(rows, cols int) *sparse.Matrix {
	n := rows * cols
	t := sparse.NewTriplet(n, n, 5*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			t.Add(v, v, 4)
			if r+1 < rows {
				t.Add(v, id(r+1, c), -1)
				t.Add(id(r+1, c), v, -1)
			}
			if c+1 < cols {
				t.Add(v, id(r, c+1), -1)
				t.Add(id(r, c+1), v, -1)
			}
		}
	}
	return t.Compile()
}

func randomSymmetric(rng *rand.Rand, n int, density float64) *sparse.Matrix {
	t := sparse.NewTriplet(n, n, n*4)
	for i := 0; i < n; i++ {
		t.Add(i, i, float64(n))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				t.Add(i, j, -1)
				t.Add(j, i, -1)
			}
		}
	}
	return t.Compile()
}

func TestGraphFromMatrix(t *testing.T) {
	// Path graph 0-1-2 with self loops dropped.
	a := sparse.FromDense([][]float64{
		{2, -1, 0},
		{-1, 2, -1},
		{0, -1, 2},
	})
	g := NewGraph(a)
	if g.N != 3 {
		t.Fatalf("N = %d", g.N)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Errorf("degrees: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestGraphDeduplicatesAsymmetric(t *testing.T) {
	// A has (0,1) only; graph of A+Aᵀ must have edge both ways, once.
	a := sparse.FromDense([][]float64{{0, 1}, {0, 0}})
	g := NewGraph(a)
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
}

func checkPerm(t *testing.T, name string, p []int, n int) {
	t.Helper()
	if len(p) != n {
		t.Fatalf("%s: permutation length %d != %d", name, len(p), n)
	}
	if !sparse.IsPerm(p) {
		t.Fatalf("%s: not a permutation: %v", name, p)
	}
}

func TestOrderingsAreValidPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []*sparse.Matrix{
		grid2D(7, 9),
		grid2D(1, 1),
		grid2D(1, 20),
		randomSymmetric(rng, 40, 0.1),
		sparse.Identity(5), // fully disconnected graph
	}
	for i, a := range cases {
		g := NewGraph(a)
		checkPerm(t, "RCM", RCM(g), a.Rows)
		checkPerm(t, "ND", NestedDissection(g, 4), a.Rows)
		checkPerm(t, "MD", MinimumDegree(g), a.Rows)
		checkPerm(t, "AMD", AMD(g), a.Rows)
		_ = i
	}
}

func bandwidth(a *sparse.Matrix) int {
	bw := 0
	for j := 0; j < a.Cols; j++ {
		for p := a.Colp[j]; p < a.Colp[j+1]; p++ {
			d := a.Rowi[p] - j
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

func TestRCMReducesBandwidth(t *testing.T) {
	a := grid2D(10, 30) // natural order bandwidth 30
	g := NewGraph(a)
	p := RCM(g)
	pa := a.SymPerm(p)
	if bw := bandwidth(pa); bw > 15 {
		t.Errorf("RCM bandwidth %d, want <= 15 (natural %d)", bw, bandwidth(a))
	}
}

// fillIn counts the fill (nnz of the Cholesky factor) of a symmetric
// positive definite pattern via a simple symbolic elimination.
func fillIn(a *sparse.Matrix) int {
	n := a.Rows
	adj := make([]map[int]bool, n)
	for v := range adj {
		adj[v] = map[int]bool{}
	}
	for j := 0; j < n; j++ {
		for p := a.Colp[j]; p < a.Colp[j+1]; p++ {
			i := a.Rowi[p]
			if i != j {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	total := n
	for v := 0; v < n; v++ {
		// Neighbors with higher number form a clique.
		var higher []int
		for w := range adj[v] {
			if w > v {
				higher = append(higher, w)
			}
		}
		total += len(higher)
		for i := 0; i < len(higher); i++ {
			for j := i + 1; j < len(higher); j++ {
				adj[higher[i]][higher[j]] = true
				adj[higher[j]][higher[i]] = true
			}
		}
	}
	return total
}

func TestOrderingsReduceFill(t *testing.T) {
	a := grid2D(14, 14)
	g := NewGraph(a)
	natural := fillIn(a)
	for _, tc := range []struct {
		name string
		p    []int
	}{
		{"RCM", RCM(g)},
		{"ND", NestedDissection(g, 8)},
		{"MD", MinimumDegree(g)},
		{"AMD", AMD(g)},
	} {
		f := fillIn(a.SymPerm(tc.p))
		t.Logf("%s fill %d vs natural %d", tc.name, f, natural)
		if f >= natural {
			t.Errorf("%s did not reduce fill: %d >= %d", tc.name, f, natural)
		}
	}
}

func TestNDSeparatorQuality(t *testing.T) {
	// On a k×k grid, ND fill should beat RCM fill for large enough k.
	a := grid2D(24, 24)
	g := NewGraph(a)
	nd := fillIn(a.SymPerm(NestedDissection(g, 16)))
	rcm := fillIn(a.SymPerm(RCM(g)))
	t.Logf("ND fill %d, RCM fill %d", nd, rcm)
	if nd >= rcm {
		t.Errorf("nested dissection fill %d should beat RCM %d on a mesh", nd, rcm)
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	// On a path graph, pseudo-peripheral from any start must be an end.
	n := 17
	tr := sparse.NewTriplet(n, n, 2*n)
	for i := 0; i < n-1; i++ {
		tr.Add(i, i+1, 1)
		tr.Add(i+1, i, 1)
	}
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	g := NewGraph(tr.Compile())
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	root, h := g.PseudoPeripheral(8, mask, level, nil)
	if root != 0 && root != n-1 {
		t.Errorf("pseudo-peripheral of a path = %d, want an endpoint", root)
	}
	if h != n {
		t.Errorf("height %d, want %d", h, n)
	}
	for i := range level {
		if level[i] != -1 {
			t.Errorf("level[%d] not reset", i)
		}
	}
}

func TestOrderingsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := randomSymmetric(rng, n, 0.15)
		g := NewGraph(a)
		return sparse.IsPerm(RCM(g)) &&
			sparse.IsPerm(NestedDissection(g, 1+rng.Intn(8))) &&
			sparse.IsPerm(MinimumDegree(g)) &&
			sparse.IsPerm(AMD(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAMDFillNearExactMinimumDegree(t *testing.T) {
	// AMD's approximate external degrees must not cost much fill over
	// exact minimum degree, and must clearly beat RCM on a mesh.
	a := grid2D(20, 20)
	g := NewGraph(a)
	amd := fillIn(a.SymPerm(AMD(g)))
	md := fillIn(a.SymPerm(MinimumDegree(g)))
	rcm := fillIn(a.SymPerm(RCM(g)))
	t.Logf("AMD fill %d, MD %d, RCM %d", amd, md, rcm)
	if float64(amd) > 1.15*float64(md) {
		t.Errorf("AMD fill %d more than 15%% above exact MD %d", amd, md)
	}
	if amd >= rcm {
		t.Errorf("AMD fill %d should beat RCM %d on a mesh", amd, rcm)
	}
}

func TestAMDEliminatesLeavesFirst(t *testing.T) {
	// Star graph: AMD, like MD, must keep the hub until the end.
	n := 9
	tr := sparse.NewTriplet(n, n, 2*n)
	for i := 1; i < n; i++ {
		tr.Add(0, i, 1)
		tr.Add(i, 0, 1)
	}
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	p := AMD(NewGraph(tr.Compile()))
	for k := 0; k < n-2; k++ {
		if p[k] == 0 {
			t.Errorf("AMD on a star eliminated hub at position %d, perm %v", k, p)
		}
	}
}

func TestMinimumDegreeEliminatesLeavesFirst(t *testing.T) {
	// Star graph: center has degree n-1, leaves degree 1. MD must place
	// the center last.
	n := 9
	tr := sparse.NewTriplet(n, n, 2*n)
	for i := 1; i < n; i++ {
		tr.Add(0, i, 1)
		tr.Add(i, 0, 1)
	}
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	g := NewGraph(tr.Compile())
	p := MinimumDegree(g)
	// The hub has degree n-1 while any leaf has degree 1, so the hub
	// cannot be eliminated until at most one leaf remains (after which
	// hub and leaf tie at degree 1).
	for k := 0; k < n-2; k++ {
		if p[k] == 0 {
			t.Errorf("MD on a star eliminated hub at position %d, perm %v", k, p)
		}
	}
}

// The lean AMD must return the reference implementation's permutation
// exactly on every test graph of this package.
func TestAMDMatchesReference(t *testing.T) {
	star := sparse.NewTriplet(9, 9, 18)
	cycle := sparse.NewTriplet(12, 12, 36)
	for i := 0; i < 12; i++ {
		if i < 9 {
			star.Add(i, i, 1)
			if i > 0 {
				star.Add(0, i, 1)
				star.Add(i, 0, 1)
			}
		}
		cycle.Add(i, (i+1)%12, 1)
		cycle.Add((i+1)%12, i, 1)
		cycle.Add(i, i, 1)
	}
	mats := []*sparse.Matrix{
		grid2D(9, 13), grid2D(1, 25), grid2D(20, 20), grid2D(4, 4),
		star.Compile(), cycle.Compile(), sparse.Identity(8),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		mats = append(mats, randomSymmetric(rng, 2+rng.Intn(70), []float64{0.02, 0.07, 0.15, 0.3}[i%4]))
	}
	for mi, a := range mats {
		g := NewGraph(a)
		got, want := AMD(g), amdReference(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mat %d (n=%d): AMD diverged from the reference at %d:\n got  %v\n want %v",
					mi, a.Rows, i, got, want)
			}
		}
	}
}

// degQueue must pop vertices in exactly the order the degree buckets
// it replaced did, under any interleaving of updates and pops.
func TestDegQueueMatchesBuckets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		deg := make([]int, n)
		for v := range deg {
			deg[v] = rng.Intn(n)
		}
		q, ref := newDegQueue(deg), newRefBuckets(deg, n)
		popped := make([]bool, n)
		for step := 0; step < 4*n; step++ {
			if rng.Intn(3) == 0 {
				a, b := q.PopMin(), ref.PopMin()
				if a != b {
					return false
				}
				if a >= 0 {
					popped[a] = true
				}
				continue
			}
			v, d := rng.Intn(n), rng.Intn(n)
			if popped[v] {
				continue // the orderings never update an eliminated vertex
			}
			q.Update(v, d)
			ref.Update(v, d)
		}
		for {
			a, b := q.PopMin(), ref.PopMin()
			if a != b {
				return false
			}
			if a < 0 {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
