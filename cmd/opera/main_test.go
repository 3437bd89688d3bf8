package main

import (
	"flag"
	"fmt"
	"testing"

	"opera/internal/core"
	"opera/internal/galerkin"
	"opera/internal/grid"
	"opera/internal/mna"
	"opera/internal/obs"
	"opera/internal/obs/bench"
	"opera/internal/order"
	"opera/internal/service"
)

// ordered runs f with the ordering histograms installed and returns the
// one ordering f ran (it fails when f ran none or several kinds).
func ordered(f func() error) (string, error) {
	reg := obs.NewRegistry()
	order.SetMetrics(reg)
	defer order.SetMetrics(nil)
	if err := f(); err != nil {
		return "", err
	}
	ran := ""
	for _, name := range []string{"amd", "nd", "rcm", "md"} {
		if reg.Snapshot().Histograms["order."+name+"_ms"].Count == 0 {
			continue
		}
		if ran != "" {
			return "", fmt.Errorf("ran both %s and %s", ran, name)
		}
		ran = name
	}
	if ran == "" {
		return "", fmt.Errorf("ran no ordering")
	}
	return ran, nil
}

// TestDefaultOrderingEverywhere checks that every entry point resolves
// an unspecified ordering to AMD and an explicit "nd" to nested
// dissection. Each case takes an ordering name ("" = leave it unset)
// and reports the ordering that entry point resolved or ran.
func TestDefaultOrderingEverywhere(t *testing.T) {
	nl, err := grid.Build(grid.DefaultSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(nl, mna.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	// parse leaves an empty name as the zero Ordering, as a caller that
	// never sets the field would.
	parse := func(name string) galerkin.Ordering {
		if name == "" {
			return 0
		}
		ord, err := galerkin.ParseOrdering(name)
		if err != nil {
			t.Fatal(err)
		}
		return ord
	}
	cases := []struct {
		entry   string
		resolve func(name string) (string, error)
	}{
		{"core.Options", func(name string) (string, error) {
			return ordered(func() error {
				_, err := core.Analyze(sys, core.Options{Order: 1, Step: 1e-10, Steps: 2, Ordering: parse(name)})
				return err
			})
		}},
		{"core.LeakageOptions", func(name string) (string, error) {
			return ordered(func() error {
				_, err := core.AnalyzeLeakage(nl, core.LeakageOptions{
					Regions: 4, SigmaLogI: 0.5, Order: 1, Step: 1e-10, Steps: 2, Ordering: parse(name),
				})
				return err
			})
		}},
		{"core.RunMC", func(name string) (string, error) {
			return ordered(func() error {
				_, _, err := core.RunMC(sys, core.Options{Step: 1e-10, Steps: 2, Ordering: parse(name)}, 4, 1, nil)
				return err
			})
		}},
		{"service.Request", func(name string) (string, error) {
			req := service.Request{Netlist: "x", Ordering: name}
			req.Normalize()
			ord, err := galerkin.ParseOrdering(req.Ordering)
			return ord.String(), err
		}},
		{"opera -ordering", func(name string) (string, error) {
			fs := flag.NewFlagSet("opera", flag.ContinueOnError)
			ordering := orderingFlag(fs)
			var args []string
			if name != "" {
				args = []string{"-ordering", name}
			}
			if err := fs.Parse(args); err != nil {
				return "", err
			}
			ord, err := galerkin.ParseOrdering(*ordering)
			return ord.String(), err
		}},
		{"bench.Scenario", func(name string) (string, error) {
			// The row reports the ordering its factor ran; the grid
			// generator's own calibration solve would blur a count.
			rep, err := bench.Run("default-ordering", []bench.Scenario{
				{Name: "factor", Path: "factor", Nodes: 100, Ordering: name},
			}, bench.RunOptions{})
			if err != nil {
				return "", err
			}
			return rep.Rows[0].Ordering, nil
		}},
	}
	for _, c := range cases {
		for name, want := range map[string]string{"": "amd", "nd": "nd"} {
			got, err := c.resolve(name)
			if err != nil {
				t.Errorf("%s with ordering %q: %v", c.entry, name, err)
			} else if got != want {
				t.Errorf("%s with ordering %q resolved to %s, want %s", c.entry, name, got, want)
			}
		}
	}

	// An explicit "nd" request keeps the cache key it had when nested
	// dissection was the default; an unspecified one no longer shares it.
	const ndKey = "537b299e149f624240c00b1366a56d3b24e5434f401cf1eccdc609dd083ed559"
	nd := service.Request{Netlist: "x", Ordering: "nd"}
	nd.Normalize()
	if got := nd.Key(); got != ndKey {
		t.Errorf("explicit nd request key %s, want the previous %s", got, ndKey)
	}
	def := service.Request{Netlist: "x"}
	def.Normalize()
	if def.Key() == ndKey {
		t.Error("a request with no ordering still hashes like an nd request")
	}
}
