// Command perfbench is the repository's benchmark: it drives four fixed
// workloads through the program's public entry points, checks every run's
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON object on the last line
// of standard output. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result: what the numbers were
// measured on and over how many samples, and every failed check.
type detail struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Host     hostInfo       `json:"host"`
	Samples  map[string]int `json:"samples,omitempty"`
	// ImagesPerSec is images trained (or, cost-only, simulated) per wall
	// second after setup, median over the kept runs; untraced only.
	ImagesPerSec float64 `json:"images_per_s,omitempty"`
	// StealPct is the share of the host's CPU time the hypervisor gave to
	// other guests while this invocation measured: a wall-clock number
	// taken under heavy steal is slower for reasons outside the program.
	StealPct float64  `json:"steal_pct"`
	Problems []string `json:"problems,omitempty"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	summary := fs.Int("summary", 0, "run the workload this many times, seeds seed..seed+N-1, each in its own process, and print each metric's median, quartiles and spread")
	reference := fs.Int("reference", 0, "print the reference results of seeds seed..seed+N-1 as Go source")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	switch {
	case *summary > 0:
		return runSummary(wl, *seed, *summary, *seconds, *trace == 1, stdout, stderr)
	case *reference > 0:
		return printReferences(context.Background(), wl, *seed, *reference, stdout)
	}

	host := fingerprint()
	warnSmallHost(stderr, host, wl)
	window := time.Duration(*seconds * float64(time.Second))
	var b bench
	cpu0 := readCPUTicks()
	if *trace == 1 {
		b = traced(context.Background(), wl, *seed, window)
	} else {
		b = measure(context.Background(), wl, *seed, window)
	}
	steal := stealPct(cpu0, readCPUTicks())
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, k := range sortedKeys(b.values) {
		v := b.values[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.problems = append(b.problems, fmt.Sprintf("%s is %v", k, v))
			continue
		}
		res.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
	}
	res.Correct = b.failed == 0 && len(b.problems) == 0
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	d := detail{Workload: wl.name, Seed: *seed, Trace: *trace == 1, Host: host,
		Samples: b.samples, ImagesPerSec: b.imagesPerSec, Problems: b.problems, StealPct: steal}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(d); err != nil {
		return err
	}
	return enc.Encode(res)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// bench is one invocation's outcome before it is printed.
type bench struct {
	attempted, failed int
	values            map[string]float64
	// imagesPerSec is the untraced wall-clock throughput. It is printed
	// in the detail line, not gated: it follows the hypervisor's steal.
	imagesPerSec float64
	samples      map[string]int
	problems     []string
}

// runner executes runs of one seed, checks each against the first, and
// counts attempts and failures.
type runner struct {
	ctx   context.Context
	wl    *workload
	seed  uint64
	b     *bench
	first *runRecord
}

func (r *runner) run(h *hooks) *runRecord {
	// Start each run from a collected heap, as a fresh process would, so
	// no run pays for the garbage of the one before.
	runtime.GC()
	cpu0 := readCPUTicks()
	rec := r.wl.run(r.ctx, r.seed, h)
	rec.steal = stealPct(cpu0, readCPUTicks())
	r.b.attempted++
	if bad := r.wl.check(r.seed, rec, r.first); len(bad) > 0 {
		r.b.failed++
		r.b.problems = append(r.b.problems, bad...)
	}
	if r.first == nil {
		r.first = rec
	}
	return rec
}

// window repeats untraced runs for about d: it starts another run only
// while the previous run's duration still fits, and makes at least
// minRuns runs.
func (r *runner) window(d time.Duration) []*runRecord {
	var runs []*runRecord
	start := time.Now()
	var last time.Duration
	for len(runs) < minRuns || time.Since(start)+last <= d {
		t0 := time.Now()
		rec := r.run(nil)
		last = time.Since(t0)
		if rec.err != nil {
			break
		}
		runs = append(runs, rec)
	}
	return runs
}

// minRuns is the fewest runs a measurement takes its medians over.
const minRuns = 3

// leastStolen returns the half of runs (at least minRuns) during which the
// hypervisor took the least CPU time from this machine. On a shared
// virtual machine a neighbour's burst of load slows a run by up to half
// through no fault of the program; the runs it spared measure the program.
func leastStolen(runs []*runRecord) []*runRecord {
	keep := min(len(runs), max(minRuns, (len(runs)+1)/2))
	sorted := append([]*runRecord(nil), runs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].steal < sorted[j].steal })
	return sorted[:keep]
}

// measure is the untraced run: it reports the workload's end-to-end
// metrics as medians over the least-stolen half of the runs that fit in
// the window, leaving out the first.
func measure(ctx context.Context, wl *workload, seed uint64, d time.Duration) bench {
	b := bench{values: map[string]float64{}, samples: map[string]int{}}
	r := &runner{ctx: ctx, wl: wl, seed: seed, b: &b}
	all := r.window(d)
	if len(all) == 0 {
		return b
	}
	b.samples["runs"] = len(all)
	if len(all) > minRuns {
		// The first run warms caches and grows the heap; later runs do not
		// pay for that.
		all = all[1:]
	}
	runs := leastStolen(all)
	b.samples["runs_kept"] = len(runs)
	var setup, cpuPerImage, imgRate []float64
	for _, rec := range runs {
		setup = append(setup, rec.setupSec())
		cpuPerImage = append(cpuPerImage, rec.cpuSec()/rec.images()*1e6)
		imgRate = append(imgRate, rec.images()/rec.wallSec())
	}
	b.values["setup_s"] = median(setup)
	b.values["cpu_us_per_image"] = median(cpuPerImage)
	b.imagesPerSec = median(imgRate)
	rss, err := peakRSSMB()
	if err != nil {
		b.problems = append(b.problems, "peak_rss_mb: "+err.Error())
	} else {
		b.values["peak_rss_mb"] = rss
	}
	return b
}

// stepPercentile is the median over runs of each run's p-th percentile of
// its live step intervals, and the number of intervals behind it. Taking
// the percentile per run keeps a burst of host interference during one
// run from moving the result. Every run must leave at least minBeyond
// samples beyond its percentile.
func stepPercentile(runs []*runRecord, p float64) (float64, int, error) {
	var per []float64
	total := 0
	for _, rec := range runs {
		var steps []float64
		for _, sr := range rec.specs {
			steps = append(steps, sr.steps...)
		}
		v, n, ok := percentile(steps, p)
		total += n
		if !ok {
			return 0, total, fmt.Errorf("%d step samples in a run leave fewer than %d beyond p%v", n, minBeyond, p)
		}
		per = append(per, v)
	}
	return median(per), total, nil
}

// traced is the traced run: untraced baseline runs fill about half the
// window (the MemStats deltas around their training give the Go runtime
// metrics, their wall the tracing-overhead base), then traced runs with every layer wrapped,
// then replays of the layers' public calls at the captured shapes.
func traced(ctx context.Context, wl *workload, seed uint64, d time.Duration) bench {
	b := bench{values: map[string]float64{}, samples: map[string]int{}}
	r := &runner{ctx: ctx, wl: wl, seed: seed, b: &b}

	base := r.window(d / 2)
	if len(base) == 0 {
		return b
	}
	var baseWall, validate, rendezvous []float64
	var iters, mallocs, gcs float64
	for _, rec := range base {
		baseWall = append(baseWall, rec.wallSec())
		iters += float64(rec.workerIters())
		v := 0.0
		for _, sr := range rec.specs {
			v += sr.validateSec
			mallocs += float64(sr.mallocs)
			gcs += float64(sr.gcs)
		}
		validate = append(validate, v)
		rendezvous = append(rendezvous, rec.specs[0].rendezvous)
	}
	v := b.values
	v["go.allocs_per_step"] = mallocs / iters
	v["go.gc_cycles"] = gcs / float64(len(base))
	v["api.validate_ms"] = median(validate) * 1e3
	b.samples["baseline_runs"] = len(base)
	// Live step statistics of the least-stolen baseline runs.
	kept := leastStolen(base)
	for _, p := range []float64{50, 99} {
		name := fmt.Sprintf("live.step_ms.p%d", int(p))
		if !contains(wl.layers, name) {
			continue
		}
		val, n, err := stepPercentile(kept, p)
		b.samples["live.step_ms"] = n
		if err != nil {
			b.problems = append(b.problems, name+": "+err.Error())
			continue
		}
		v[name] = val
	}
	if err := wl.layerReport(r, base, median(baseWall), median(rendezvous), v, b.samples); err != nil {
		b.problems = append(b.problems, err.Error())
	}
	// Keep only the names the workload declares; the layers it does not
	// call did no work.
	for k := range v {
		if !contains(wl.layers, k) {
			delete(v, k)
		}
	}
	for _, name := range wl.layers {
		if _, ok := v[name]; !ok {
			b.problems = append(b.problems, "traced run did not produce "+name)
		}
	}
	for _, name := range perLayer() {
		if !contains(wl.layers, name) {
			v[name] = 0
		}
	}
	return b
}

// minNoncompute is how many live step samples the traced run collects so
// that live.noncompute_ms.p99 has at least minBeyond samples beyond it.
const minNoncompute = 100 * (minBeyond + 1)

// layerReport runs the workload's traced runs and replays and fills in its
// per-layer metrics.
func (wl *workload) layerReport(r *runner, base []*runRecord, baseWall, rendezvous float64, v map[string]float64, samples map[string]int) error {
	specs := wl.specs(r.seed)
	first := base[0].specs[0]
	if specs[0].Real == nil {
		return wl.costReport(r, base, baseWall, v)
	}
	c := newCapture()
	h := &hooks{wrap: c.wrap}
	if specs[0].Live() {
		h.onStep = c.onStep
	}
	var tracedWalls []float64
	for len(tracedWalls) == 0 || (specs[0].Live() && len(c.noncompute) < minNoncompute && len(tracedWalls) < 10) {
		c.reset()
		rec := r.run(h)
		if rec.err != nil {
			return rec.err
		}
		tracedWalls = append(tracedWalls, rec.wallSec())
	}
	v["bench.tracing_overhead"] = median(tracedWalls) / baseWall
	if err := layerMetrics(c, v); err != nil {
		return err
	}
	tracedWall := 0.0
	for _, w := range tracedWalls {
		tracedWall += w
	}
	busy := float64(c.busyNs()) / 1e9 / tracedWall
	v["nn.busy_per_wall"] = busy
	if wl.pool > 0 {
		v["sched.efficiency"] = busy / float64(wl.pool)
	}
	cfg, err := specs[0].Validated()
	if err != nil {
		return err
	}
	vectorReplays(c, cfg, max(wl.world, cfg.Workers), wl.layers, v)
	if specs[0].Live() {
		iters := float64(first.iters)
		v["xport.frames_per_step"] = float64(first.frames) / iters
		v["xport.bytes_per_step"] = float64(first.wireBytes) / iters
		if err := frameReplays(first.frames, first.wireBytes, specs[0].Quantize8, v); err != nil {
			return err
		}
		v["live.rendezvous_s"] = rendezvous
		samples["live.noncompute_ms"] = len(c.noncompute)
		for _, p := range []float64{50, 99} {
			name := fmt.Sprintf("live.noncompute_ms.p%d", int(p))
			val, _, ok := percentile(c.noncompute, p)
			if !ok {
				return fmt.Errorf("%s: %d samples leave fewer than %d beyond it", name, len(c.noncompute), minBeyond)
			}
			v[name] = val
		}
	} else {
		v["core.virtual_sec"] = first.virtualSec
	}
	if contains(wl.layers, "train.single_step_ms") {
		v["train.single_step_ms"] = singleStepMs(specs[0].Real.Net == "mlp")
	}
	return nil
}

// costReport fills in the cost-only workload's per-layer metrics: each
// configuration's wall time, the simulated traffic counts, and replays of
// the topology, event-engine and collective calls at the captured world
// size. A cost-only run has no layers to wrap, so its traced run is one
// more run timed configuration by configuration.
func (wl *workload) costReport(r *runner, base []*runRecord, baseWall float64, v map[string]float64) error {
	rec := r.run(nil)
	if rec.err != nil {
		return rec.err
	}
	v["bench.tracing_overhead"] = rec.wallSec() / baseWall
	var hier, asp []float64
	var msgs, bytes, iters, vsec float64
	var msgRate []float64
	for _, b := range base {
		hier = append(hier, b.specs[0].wallSec)
		asp = append(asp, b.specs[1].wallSec)
		m := 0.0
		for _, sr := range b.specs {
			m += float64(sr.netMsgs)
		}
		msgRate = append(msgRate, m/b.wallSec())
	}
	for _, sr := range base[0].specs {
		msgs += float64(sr.netMsgs)
		bytes += float64(sr.netBytes)
		iters += float64(sr.workerIters)
		vsec += sr.virtualSec
	}
	v["comm.allreduce_run_s"] = median(hier)
	v["ps.sharded_run_s"] = median(asp)
	v["simnet.msgs_per_worker_iter"] = msgs / iters
	v["simnet.bytes_per_worker_iter"] = bytes / iters
	v["simnet.msgs_per_s"] = median(msgRate)
	v["core.virtual_sec"] = vsec
	cfg, err := wl.specs(r.seed)[0].Validated()
	if err != nil {
		return err
	}
	return simReplays(cfg, v)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
