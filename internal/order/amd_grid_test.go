package order_test

import (
	"runtime"
	"testing"

	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/order"
	"opera/internal/sparse"
)

// companionGraph is the adjacency graph of the transient companion
// G + C/h of a generated grid — the pattern every factor path orders.
func companionGraph(t testing.TB, nodes int) *order.Graph {
	t.Helper()
	nl, err := grid.Build(grid.DefaultSpec(nodes, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return order.NewGraph(sparse.Add(1, sys.Ga, 1e10, sys.Ca))
}

// The lean AMD must return the reference implementation's permutation
// exactly on the generator grids the solvers order.
func TestAMDMatchesReferenceOnGeneratorGrids(t *testing.T) {
	sizes := []int{256, 600, 1600, 6800, 20000}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, nodes := range sizes {
		g := companionGraph(t, nodes)
		got, want := order.AMD(g), order.AMDReference(g)
		if len(got) != len(want) {
			t.Fatalf("%d nodes: lengths %d vs %d", nodes, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d nodes: permutations differ first at %d: %d vs %d", nodes, i, got[i], want[i])
			}
		}
	}
}

// allocBytes reports the heap bytes one call of f allocates (minimum
// over a few calls, so a concurrent runtime allocation cannot inflate
// it).
func allocBytes(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// AMD must allocate no more than nested dissection on the 6800-node
// companion pattern (the decoupled path's ordering input).
func TestAMDAllocatesNoMoreThanND(t *testing.T) {
	g := companionGraph(t, 6800)
	amd := allocBytes(func() { order.AMD(g) })
	ref := allocBytes(func() { order.AMDReference(g) })
	nd := allocBytes(func() { order.NestedDissection(g, 0) })
	t.Logf("6800-node companion (%d adjacency entries): AMD %d B, reference AMD %d B, ND %d B", len(g.Adj), amd, ref, nd)
	if amd > nd {
		t.Errorf("AMD allocates %d B, more than ND's %d B", amd, nd)
	}
}
