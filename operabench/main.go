// Command operabench is the OPERA benchmark. One invocation runs one
// workload for a fixed measuring window, checks the workload's outputs
// against a path the math says must agree, and prints one JSON result
// line:
//
//	operabench --workload coupled-6800 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics of
// one traced attribution pass (see README.md). Inputs are generated
// from --seed; the program under test sees only the generated grids and
// requests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"opera/internal/obs"
)

// workload is one benchmark input set. run measures it with tracing off
// and returns the end-to-end metrics. README.md says why each exists.
type workload struct {
	name string
	run  func(seed int64, window time.Duration) (*outcome, error)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []workload{
	{"coupled-6800", runCoupled},
	{"leakage-6800-o3", runLeakage},
	{"mc-6800", runMC},
	{"cluster-mix", runClusterMix},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports: the result line's fields plus
// informational figures printed on a line of their own.
type outcome struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]metric
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]metric{}, info: map[string]any{}}
}

// set records a metric.
func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check records the verdict of one output check.
func (o *outcome) check(name string, err error) {
	if err != nil {
		o.correct = false
		o.problems = append(o.problems, name+": "+err.Error())
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measuring window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("operabench: unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("operabench: need --seconds >= 1 and --trace 0 or 1")
	}
	printJSON(map[string]any{"env": environment(w.name, *seed, *trace)})
	var (
		out *outcome
		err error
	)
	if *trace == 1 {
		out, err = runTraced(*seed, gridNodes)
	} else {
		out, err = w.run(*seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatalf("operabench: %s: %v", w.name, err)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "operabench: check failed:", p)
	}
	for k, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatalf("operabench: metric %s is %v", k, m.Value)
		}
	}
	if len(out.info) > 0 {
		printJSON(map[string]any{"info": out.info})
	}
	printJSON(result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// environment is the block every report carries, so runs from
// different machines or configurations are not compared by accident.
func environment(name string, seed int64, trace int) map[string]any {
	bi := obs.ReadBuild()
	commit := bi.Revision
	if commit == "" {
		commit = "unknown"
	}
	if bi.Dirty {
		commit += "+dirty"
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"platform":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"service":    shardConfig(),
		"router":     routerConfig(),
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("operabench: encoding output: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-quantile of xs and how many
// samples lie strictly beyond it.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	for _, x := range s[i+1:] {
		if x > s[i] {
			beyond++
		}
	}
	return s[i], beyond
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
