package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := New("root")
	a := tr.Start("a", Int("n", 100))
	b := tr.Start("b")
	time.Sleep(time.Millisecond)
	b.End()
	a.End()
	c := tr.Start("c")
	c.End()
	tr.Record("d", 5*time.Millisecond, String("kind", "accumulated"))
	tr.Finish()

	root := tr.Root()
	kids := root.Children()
	if len(kids) != 3 {
		t.Fatalf("root has %d children, want 3 (a, c, d)", len(kids))
	}
	if kids[0].Name != "a" || kids[1].Name != "c" || kids[2].Name != "d" {
		t.Fatalf("child order wrong: %s, %s, %s", kids[0].Name, kids[1].Name, kids[2].Name)
	}
	aKids := kids[0].Children()
	if len(aKids) != 1 || aKids[0].Name != "b" {
		t.Fatalf("span a children = %v, want [b]", aKids)
	}
	if kids[0].Duration() < aKids[0].Duration() {
		t.Errorf("parent a (%v) shorter than child b (%v)", kids[0].Duration(), aKids[0].Duration())
	}
	if got := kids[2].Duration(); got != 5*time.Millisecond {
		t.Errorf("recorded span duration %v, want 5ms", got)
	}
	if root.Duration() < kids[0].Duration()+kids[1].Duration() {
		t.Errorf("root %v shorter than sum of sequential children", root.Duration())
	}
}

func TestEndClosesOpenDescendants(t *testing.T) {
	tr := New("root")
	outer := tr.Start("outer")
	tr.Start("inner-left-open")
	outer.End() // must close inner too and restore the cursor
	sib := tr.Start("sibling")
	sib.End()
	tr.Finish()
	kids := tr.Root().Children()
	if len(kids) != 2 || kids[1].Name != "sibling" {
		t.Fatalf("cursor not restored after nested End: children %+v", kids)
	}
	inner := kids[0].Children()
	if len(inner) != 1 || !inner[0].done {
		t.Fatalf("open descendant not closed by parent End")
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test.ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1.0, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	snap := reg.Snapshot().Histograms["test.ms"]
	if snap.Count != 6 {
		t.Fatalf("count %d, want 6", snap.Count)
	}
	// Buckets are upper-bound inclusive: {<=1: 0.5 and 1.0}, {<=10: 5},
	// {<=100: 50}, {+Inf: 500 and 5000}.
	want := []int64{2, 1, 1, 2}
	if len(snap.Buckets) != 4 {
		t.Fatalf("bucket count %d, want 4", len(snap.Buckets))
	}
	for i, b := range snap.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le %g): count %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, 1) {
		t.Errorf("last bucket bound %g, want +Inf", snap.Buckets[3].UpperBound)
	}
	if snap.Min != 0.5 || snap.Max != 5000 {
		t.Errorf("min/max %g/%g, want 0.5/5000", snap.Min, snap.Max)
	}
	if got, want := snap.Sum, 0.5+1+5+50+500+5000; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum %g, want %g", got, want)
	}
	if got, want := snap.Mean(), (0.5+1+5+50+500+5000)/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean %g, want %g", got, want)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("test.events_total")
			h := reg.Histogram("test.values", []float64{0.25, 0.5, 0.75})
			g := reg.Gauge("test.max")
			for i := 0; i < per; i++ {
				c.Inc()
				v := float64(i%100) / 100
				h.Observe(v)
				g.SetMax(v)
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("test.events_total").Value(); got != workers*per {
		t.Errorf("counter %d, want %d", got, workers*per)
	}
	if got := reg.Histogram("test.values", nil).Count(); got != workers*per {
		t.Errorf("histogram count %d, want %d", got, workers*per)
	}
	if got := reg.Gauge("test.max").Value(); got != 0.99 {
		t.Errorf("gauge max %g, want 0.99", got)
	}
}

func TestNilFastPath(t *testing.T) {
	// Every operation on the disabled (nil) layer must be a safe no-op.
	var tr *Tracer
	sp := tr.Start("x", Int("n", 1))
	sp.End()
	sp.SetAttrs(String("k", "v"))
	tr.Record("y", time.Second)
	tr.Finish()
	tr.CollectAllocs(false)
	if tr.Root() != nil || tr.Dump() != nil {
		t.Error("nil tracer must expose no spans")
	}
	if err := tr.WriteText(new(bytes.Buffer)); err != nil {
		t.Errorf("nil WriteText: %v", err)
	}
	if err := tr.WriteJSON(new(bytes.Buffer)); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
	reg := tr.Registry()
	if reg != nil {
		t.Fatal("nil tracer must return a nil registry")
	}
	reg.Counter("c").Add(3)
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Gauge("g").SetMax(2)
	reg.Histogram("h", MSBuckets).Observe(1)
	reg.Histogram("h", MSBuckets).ObserveSince(time.Now())
	if reg.Counter("c").Value() != 0 || reg.Gauge("g").Value() != 0 || reg.Histogram("h", nil).Count() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	tr := New("opera.run")
	sp := tr.Start("factor", Int("n", 2600), String("rung", "supernodal"))
	tr.Start("factor.supernodal")
	tr.Finish()
	_ = sp
	reg := tr.Registry()
	reg.Counter("galerkin.steps_total").Add(20)
	reg.Gauge("numguard.max_residual").Set(1.5e-15)
	reg.Histogram("transient.step_ms", []float64{1, 10}).Observe(3.5)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "opera.run" || len(d.Spans) != 1 || d.Spans[0].Name != "factor" {
		t.Fatalf("decoded dump shape wrong: %+v", d)
	}
	if len(d.Spans[0].Spans) != 1 || d.Spans[0].Spans[0].Name != "factor.supernodal" {
		t.Fatalf("nested span lost: %+v", d.Spans[0])
	}
	if d.Spans[0].Attrs["rung"] != "supernodal" || d.Spans[0].Attrs["n"] != "2600" {
		t.Errorf("attrs lost: %+v", d.Spans[0].Attrs)
	}
	if d.Metrics.Counters["galerkin.steps_total"] != 20 {
		t.Errorf("counter lost: %+v", d.Metrics.Counters)
	}
	if d.Metrics.Gauges["numguard.max_residual"] != 1.5e-15 {
		t.Errorf("gauge lost: %+v", d.Metrics.Gauges)
	}
	h := d.Metrics.Histograms["transient.step_ms"]
	if h.Count != 1 || h.Sum != 3.5 {
		t.Errorf("histogram lost: %+v", h)
	}
	if len(h.Buckets) != 3 || !math.IsInf(h.Buckets[2].UpperBound, 1) {
		t.Errorf("+Inf bucket did not survive the round trip: %+v", h.Buckets)
	}
}

func TestWriteText(t *testing.T) {
	tr := New("opera.run")
	sp := tr.Start("transient", Int("steps", 20))
	sp.End()
	tr.Registry().Counter("galerkin.steps_total").Add(20)
	tr.Finish()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"opera.run", "transient", "steps=20", "galerkin.steps_total", "metrics:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-16, 100, 4)
	want := []float64{1e-16, 1e-14, 1e-12, 1e-10}
	for i := range want {
		if math.Abs(b[i]-want[i]) > want[i]*1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}
