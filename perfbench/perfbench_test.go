package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"disttrain/internal/api"
	"disttrain/internal/data"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // rank 990, 10 samples beyond
		{999, 99, 990, false}, // rank 990, only 9 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		v, n, ok := percentile(seq(c.n), c.p)
		if n != c.n {
			t.Errorf("n=%d p%v: sample count %d", c.n, c.p, n)
		}
		if ok != c.ok {
			t.Errorf("n=%d p%v: ok=%v, want %v", c.n, c.p, ok, c.ok)
		}
		if c.n > 0 && v != c.want {
			t.Errorf("n=%d p%v: value %v, want %v", c.n, c.p, v, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range concat(endToEnd, perLayer()) {
		if !metricName.MatchString(name) || len(name) > 64 {
			t.Errorf("bad metric name %q", name)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
		if u := unitOf(name); !unitGrammar.MatchString(u) {
			t.Errorf("metric %q has bad unit %q", name, u)
		}
	}
	if !contains(endToEnd, "setup_s") {
		t.Errorf("end-to-end metrics lack setup_s")
	}
	for _, w := range workloads {
		own := map[string]bool{}
		for _, name := range w.layers {
			if own[name] {
				t.Errorf("%s: per-layer metric %q listed twice", w.name, name)
			}
			own[name] = true
		}
	}
}

// TestBenchmarkJSONMatchesWorkloads keeps BENCHMARK.json and the code in
// step: the same workloads, and exactly the metrics every run reports, in
// the same order.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %q, code %q", i, f.Workloads[i].Name, w.name)
		}
	}
	var e2e, layers []string
	maxBound := 0.0
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q, code says %q", m.Name, m.Unit, unitOf(m.Name))
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range f.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for _, m := range f.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q, code says %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end lists %v, every run reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("per_layer lists %v, every traced run reports %v", layers, perLayer())
	}
}

// TestWrappedModelBitIdentical checks the traced run's layer wrappers are
// transparent: a wrapped model's loss and gradients on a batch equal the
// unwrapped model's bit for bit.
func TestWrappedModelBitIdentical(t *testing.T) {
	for _, net := range []string{"mlp", "minicnn", "minivgg"} {
		dsName := "shapes16"
		if net == "mlp" {
			dsName = "gauss"
		}
		ds, err := data.ByName(dsName, rng.New(3), 64)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := nn.FactoryByName(net, ds.Classes)
		if err != nil {
			t.Fatal(err)
		}
		plain := factory(rng.New(5))
		wrapped := newCapture().wrap(factory)(rng.New(5))
		idx := []int{0, 3, 5, 7, 11, 13, 17, 19}
		x, y := ds.Gather(idx, nil, nil)
		for step := 0; step < 3; step++ {
			plain.ZeroGrads()
			wrapped.ZeroGrads()
			lp, _ := plain.Loss(x, y)
			lw, _ := wrapped.Loss(x, y)
			if math.Float64bits(lp) != math.Float64bits(lw) {
				t.Fatalf("%s step %d: wrapped loss %v, plain %v", net, step, lw, lp)
			}
			gp, gw := plain.FlatGrads(nil), wrapped.FlatGrads(nil)
			for i := range gp {
				if math.Float32bits(gp[i]) != math.Float32bits(gw[i]) {
					t.Fatalf("%s step %d: gradient %d differs", net, step, i)
				}
			}
			// Move both along the same update so later steps see new weights.
			plain.AxpyParams(-0.1, gp)
			wrapped.AxpyParams(-0.1, gw)
		}
	}
}

// TestReplayShapesComeFromTrace runs a small traced simulation at an
// unusual batch size and checks the replay geometry follows the captured
// shapes rather than any constant.
func TestReplayShapesComeFromTrace(t *testing.T) {
	for _, batch := range []int{3, 5} {
		spec := api.ExperimentSpec{Algo: "bsp", Workers: 2, Iters: 2, Seed: 1,
			Real: &api.RealSpec{Dataset: "shapes16", Net: "minicnn", Batch: batch, EvalMax: 16}}
		wl := &workload{name: "t", setupReps: 1,
			specs: func(uint64) []api.ExperimentSpec { return []api.ExperimentSpec{spec} }}
		c := newCapture()
		rec := wl.run(context.Background(), 0, &hooks{wrap: c.wrap})
		if rec.err != nil {
			t.Fatal(rec.err)
		}
		tr := c.trainers()
		if len(tr) != 2 {
			t.Fatalf("batch %d: %d training replicas traced, want 2", batch, len(tr))
		}
		if got := capturedBatch(c); got != batch {
			t.Fatalf("captured batch %d, want %d", got, batch)
		}
		var names []string
		for _, st := range tr[0].layers {
			names = append(names, st.name)
			g, ok := layerGemm(st)
			if !ok {
				continue
			}
			switch st.name {
			case "conv1": // 1×16×16 input, 3×3 pad 1 → 256 positions, 9 taps, 8 filters
				if want := (gemmShape{rows: batch * 256, out: 8, f: 9}); g.rows != want.rows || g.out != want.out || g.f != want.f {
					t.Errorf("conv1 replay %+v, want %+v", g, want)
				}
				if !reflect.DeepEqual(g.in, []int{batch, 1, 16, 16}) {
					t.Errorf("conv1 captured input %v", g.in)
				}
			case "fc":
				if g.rows != batch || g.f != 256 || g.out != data.ShapeClasses {
					t.Errorf("fc replay %+v", g)
				}
			}
		}
		if strings.Join(names, ",") != "conv1,pool1,conv2,pool2,flat,fc" {
			t.Errorf("traced layers %v", names)
		}
	}
}

func TestLeastStolenKeepsCleanerHalf(t *testing.T) {
	var runs []*runRecord
	for _, st := range []float64{5, 1, 9, 3, 7, 2, 4} {
		runs = append(runs, &runRecord{steal: st})
	}
	var got []float64
	for _, r := range leastStolen(runs) {
		got = append(got, r.steal)
	}
	if !reflect.DeepEqual(got, []float64{1, 2, 3, 4}) {
		t.Errorf("leastStolen kept %v", got)
	}
	if n := len(leastStolen(runs[:4])); n != minRuns {
		t.Errorf("4 runs: kept %d, want %d", n, minRuns)
	}
	if n := len(leastStolen(runs[:2])); n != 2 {
		t.Errorf("2 runs: kept %d, want 2", n)
	}
}

func TestParseCPUInfo(t *testing.T) {
	in := "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nflags\t\t: fpu sse2 avx avx2 fma\n\nprocessor\t: 1\nmodel name\t: Other\nflags\t\t: fpu\n"
	model, avx2 := parseCPUInfo(strings.NewReader(in))
	if model != "Example CPU @ 2.0GHz" || !avx2 {
		t.Errorf("parseCPUInfo = %q, %v", model, avx2)
	}
	if _, avx2 := parseCPUInfo(strings.NewReader("flags : fpu avx2x\n")); avx2 {
		t.Error("avx2x matched avx2")
	}
}
