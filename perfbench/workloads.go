package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"disttrain/internal/api"
	"disttrain/internal/core"
	"disttrain/internal/live"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
	"disttrain/internal/topo"
)

// workload is one fixed experiment the benchmark drives through the
// program's public entry points: api.ExperimentSpec.Validated, then
// core.Run or live.RunLoopback, the split api.Run makes.
type workload struct {
	name string
	why  string
	// pool and world are the fixed compute-pool size and live world size
	// the workload uses; neither is read from the host.
	pool, world int
	// specs builds the experiments one run executes, in order, from the
	// benchmark seed.
	specs func(seed uint64) []api.ExperimentSpec
	// setupReps is how many times one run repeats the spec validation and
	// model build; the run's setup time is their median.
	setupReps int
	// accFloor is the final test accuracy every run must reach (0 for
	// cost-only workloads, which check completion instead).
	accFloor float64
	// layers names the per-layer metrics of the layers the workload
	// exercises. A traced run reports every name of perLayer(); the names
	// of layers the workload does not call read 0.
	layers []string
}

// endToEnd names the end-to-end metrics every workload reports.
var endToEnd = []string{"setup_s", "cpu_us_per_image", "peak_rss_mb"}

// perLayer is the union of the workloads' per-layer metrics, in the order
// BENCHMARK.json lists them: every traced run reports each of them.
func perLayer() []string {
	var out []string
	for _, w := range workloads {
		for _, name := range w.layers {
			if !contains(out, name) {
				out = append(out, name)
			}
		}
	}
	return out
}

// specSeed maps the benchmark seed onto the experiment seed. The spec
// treats seed 0 as 1, so the benchmark shifts by one to keep every
// benchmark seed distinct.
func specSeed(seed uint64) uint64 { return seed + 1 }

var workloads = []*workload{
	{
		name: "sim-real-cnn",
		why:  "simulator with real math: BSP, 8 virtual workers, MiniCNN on a 2-goroutine pool; conv kernels dominate",
		pool: 2,
		specs: func(seed uint64) []api.ExperimentSpec {
			return []api.ExperimentSpec{{
				Name: "sim-real-cnn", Algo: "bsp", Workers: 8, Iters: 120,
				Seed: specSeed(seed), LR: 0.1, Pool: 2,
				Real: &api.RealSpec{Dataset: "shapes16", Net: "minicnn", Batch: 16, EvalEvery: 60},
			}}
		},
		setupReps: 3,
		accFloor:  0.85,
		layers: concat(
			[]string{"tensor.im2col_us", "tensor.col2im_us"},
			gemmNames("conv1", "conv2", "fc"),
			nnNames("conv1", "pool1", "conv2", "pool2", "flat", "fc"),
			[]string{"nn.step_compute_ms", "nn.busy_per_wall", "train.single_step_ms", "sched.efficiency",
				"core.virtual_sec", "api.validate_ms", "go.allocs_per_step", "go.gc_cycles", "bench.tracing_overhead"},
		),
	},
	{
		name: "sim-scale-cost",
		why:  "cost-only simulator at paper scale: hierarchical AR-SGD at 1024 workers, then sharded ASP VGG-16 at 256; des/simnet/comm/ps bound",
		specs: func(seed uint64) []api.ExperimentSpec {
			return []api.ExperimentSpec{
				{Name: "hier-arsgd-1024", Algo: "arsgd", Workers: 1024, Iters: 5,
					Seed: specSeed(seed), Collective: "hierarchical"},
				{Name: "asp-balanced-256", Algo: "asp", Workers: 256, Iters: 6,
					Seed: specSeed(seed), Model: "vgg16", Gbps: 10, Sharding: "balanced"},
			}
		},
		setupReps: 50,
		layers: []string{"ps.sharded_run_s", "comm.allreduce_run_s", "comm.collective_ms", "topo.build_ms",
			"des.event_ns", "des.proc_switch_ns", "simnet.msgs_per_worker_iter", "simnet.bytes_per_worker_iter",
			"simnet.msgs_per_s", "core.virtual_sec", "api.validate_ms", "go.allocs_per_step", "go.gc_cycles",
			"bench.tracing_overhead"},
	},
	{
		name:  "live-ps-vgg",
		why:   "live loopback TCP, BSP through the parameter server, 2 ranks, MiniVGG with dense 276 KB frames; bandwidth-bound",
		world: 2,
		specs: func(seed uint64) []api.ExperimentSpec {
			return []api.ExperimentSpec{{
				Name: "live-ps-vgg", Algo: "bsp", Workers: 2, Iters: 600,
				Seed: specSeed(seed), LR: 0.02, Transport: api.TransportTCP,
				Real: &api.RealSpec{Dataset: "shapes16", Net: "minivgg", Batch: 8},
			}}
		},
		setupReps: 3,
		accFloor:  0.85,
		layers: concat(
			[]string{"tensor.im2col_us", "tensor.col2im_us"},
			gemmNames("conv1", "conv2", "fc1", "fc2"),
			nnNames("conv1", "pool1", "conv2", "pool2", "flat", "fc1", "fc2"),
			[]string{"nn.step_compute_ms", "nn.busy_per_wall",
				"xport.frames_per_step", "xport.bytes_per_step", "xport.encode_us", "xport.decode_us",
				"live.rendezvous_s", "live.step_ms.p50", "live.step_ms.p99", "live.noncompute_ms.p50", "live.noncompute_ms.p99", "ps.apply_us",
				"api.validate_ms", "go.allocs_per_step", "go.gc_cycles", "bench.tracing_overhead"},
		),
	},
	{
		name:  "live-ring-int8",
		why:   "live loopback TCP, AR-SGD ring with int8 frames, 2 ranks, MLP; many tiny frames, latency-bound",
		world: 2,
		specs: func(seed uint64) []api.ExperimentSpec {
			return []api.ExperimentSpec{{
				Name: "live-ring-int8", Algo: "arsgd", Workers: 2, Iters: 4000,
				Seed: specSeed(seed), Quantize8: true, Transport: api.TransportTCP,
				Real: &api.RealSpec{Dataset: "gauss", Net: "mlp", Batch: 16},
			}}
		},
		setupReps: 3,
		accFloor:  0.85,
		layers: concat(
			nnNames("fc0", "fc1", "fc2"),
			[]string{"nn.step_compute_ms", "train.single_step_ms", "opt.sgd_step_us", "data.gather_us",
				"grad.quantize8_us", "grad.dequantize8_us",
				"xport.frames_per_step", "xport.bytes_per_step", "xport.encode_us", "xport.decode_us",
				"live.rendezvous_s", "live.step_ms.p50", "live.step_ms.p99",
				"live.noncompute_ms.p50", "live.noncompute_ms.p99", "api.validate_ms", "go.allocs_per_step", "go.gc_cycles", "bench.tracing_overhead"},
		),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func gemmNames(layers ...string) []string {
	var out []string
	for _, l := range layers {
		out = append(out, "tensor.gemm_gflops."+l+".fwd", "tensor.gemm_gflops."+l+".bwd")
	}
	return out
}

func nnNames(layers ...string) []string {
	var out []string
	for _, l := range layers {
		out = append(out, "nn."+l+".fwd_ms", "nn."+l+".bwd_ms")
	}
	return out
}

// unitOf maps every metric name the benchmark can report to its unit.
func unitOf(name string) string {
	switch {
	case name == "setup_s", name == "live.rendezvous_s",
		name == "ps.sharded_run_s", name == "comm.allreduce_run_s", name == "core.virtual_sec":
		return "s"
	case name == "cpu_us_per_image":
		return "us"
	case name == "peak_rss_mb":
		return "MB"
	case name == "tensor.im2col_us", name == "tensor.col2im_us", name == "opt.sgd_step_us",
		name == "data.gather_us", name == "grad.quantize8_us", name == "grad.dequantize8_us",
		name == "xport.encode_us", name == "xport.decode_us", name == "ps.apply_us":
		return "us"
	case name == "des.event_ns", name == "des.proc_switch_ns":
		return "ns"
	case strings.HasPrefix(name, "tensor.gemm_gflops."):
		return "GFLOP/s"
	case name == "nn.busy_per_wall":
		return "cores"
	case name == "sched.efficiency", name == "bench.tracing_overhead":
		return "ratio"
	case name == "xport.frames_per_step", name == "simnet.msgs_per_worker_iter":
		return "count"
	case name == "xport.bytes_per_step", name == "simnet.bytes_per_worker_iter":
		return "bytes"
	case name == "simnet.msgs_per_s":
		return "msgs/s"
	case name == "go.allocs_per_step", name == "go.gc_cycles":
		return "count"
	}
	return "ms" // step_ms.*, nn.*, live.noncompute_ms.*, *_ms
}

// hooks lets the traced run observe a run without changing it.
type hooks struct {
	// wrap replaces the model factory of a real-math spec.
	wrap func(nn.ModelFactory) nn.ModelFactory
	// onStep observes every completed live worker iteration.
	onStep func(rank int, at time.Time)
}

// specRun is what one experiment of a run produced.
type specRun struct {
	real        bool // real gradient math (else cost-only)
	validateSec float64
	setupSec    float64 // median validate + model build, plus live rendezvous
	rendezvous  float64
	wallSec     float64 // after setup: core.Run wall, or live.Result.WallSec
	cpuSec      float64 // process CPU time of the core.Run or RunLoopback call
	workerIters int
	images      float64
	steps       []float64
	finalLoss   float64
	finalAcc    float64
	virtualSec  float64
	stalled     int
	netMsgs     int64
	netBytes    int64
	frames      int64
	wireBytes   int64
	liveIters   []int
	iters       int
	mallocs     uint64 // heap allocations during the run, setup excluded
	gcs         uint32 // garbage collections during the run
}

// memMark is a runtime.MemStats reading taken before a run.
type memMark runtime.MemStats

func startMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

// since returns the allocations and collections since the mark.
func (m *memMark) since() (mallocs uint64, gcs uint32) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.Mallocs - m.Mallocs, now.NumGC - m.NumGC
}

// setup validates the spec setupReps times and builds its model once per
// repetition, returning the validated config and the median time of one
// validate-plus-build, along with the median validate time alone.
func (wl *workload) setup(spec api.ExperimentSpec) (core.Config, float64, float64, error) {
	var cfg core.Config
	var total, validate []float64
	for i := 0; i < wl.setupReps; i++ {
		t0 := time.Now()
		c, err := spec.Validated()
		if err != nil {
			return core.Config{}, 0, 0, err
		}
		tv := time.Since(t0)
		if c.Real != nil {
			_ = c.Real.Factory(rng.New(c.Seed).Split(1))
		} else if c.Collective == "hierarchical" {
			// Cost-only setup: the machine topology the collective runs on.
			if _, err := topo.New(c.Cluster, c.Workers); err != nil {
				return core.Config{}, 0, 0, err
			}
		}
		total = append(total, time.Since(t0).Seconds())
		validate = append(validate, tv.Seconds())
		cfg = c
	}
	return cfg, median(total), median(validate), nil
}

// runSpec executes one experiment end to end.
func (wl *workload) runSpec(ctx context.Context, spec api.ExperimentSpec, h *hooks) (specRun, error) {
	var out specRun
	cfg, setupSec, validateSec, err := wl.setup(spec)
	if err != nil {
		return out, err
	}
	out.setupSec, out.validateSec = setupSec, validateSec
	out.iters = cfg.Iters
	out.real = cfg.Real != nil
	if h != nil && h.wrap != nil && cfg.Real != nil {
		cfg.Real.Factory = h.wrap(cfg.Real.Factory)
	}
	if spec.Live() {
		return wl.runLive(cfg, out, h)
	}
	mem := startMem()
	cpu0 := processCPUSec()
	t0 := time.Now()
	res, err := core.Run(ctx, cfg)
	if err != nil {
		return out, err
	}
	out.wallSec = time.Since(t0).Seconds()
	out.cpuSec = processCPUSec() - cpu0
	out.mallocs, out.gcs = mem.since()
	out.workerIters = cfg.Workers * cfg.Iters
	batch := cfg.Workload.Batch
	if cfg.Real != nil {
		batch = cfg.Real.Batch
	}
	out.images = float64(out.workerIters * batch)
	out.finalLoss, out.finalAcc = res.FinalTrainLoss, res.FinalTestAcc
	out.virtualSec = res.VirtualSec
	out.stalled = res.StalledWorkers
	out.netMsgs, out.netBytes = res.Net.TotalMsgs, res.Net.TotalBytes
	return out, nil
}

// stepClock collects per-rank step intervals from the progress callback.
type stepClock struct {
	mu    sync.Mutex
	last  []time.Time
	steps []float64 // ms
}

func (c *stepClock) mark(rank int, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rank >= len(c.last) {
		c.last = append(c.last, make([]time.Time, rank+1-len(c.last))...)
	}
	if !c.last[rank].IsZero() {
		c.steps = append(c.steps, float64(at.Sub(c.last[rank]))/1e6)
	}
	c.last[rank] = at
}

func (wl *workload) runLive(cfg core.Config, out specRun, h *hooks) (specRun, error) {
	clock := &stepClock{}
	progress := func(rank, _ int, _ float64) {
		now := time.Now()
		clock.mark(rank, now)
		if h != nil && h.onStep != nil {
			h.onStep(rank, now)
		}
	}
	mem := startMem()
	cpu0 := processCPUSec()
	t0 := time.Now()
	res, err := live.RunLoopback(cfg, live.WithProgress(progress))
	if err != nil {
		return out, err
	}
	total := time.Since(t0).Seconds()
	out.cpuSec = processCPUSec() - cpu0
	out.mallocs, out.gcs = mem.since()
	out.wallSec = res.WallSec
	out.rendezvous = total - res.WallSec
	out.setupSec += out.rendezvous
	out.liveIters = res.WorkerIters
	for _, n := range res.WorkerIters {
		out.workerIters += n
	}
	out.images = float64(out.workerIters * cfg.Real.Batch)
	out.steps = clock.steps
	out.finalLoss, out.finalAcc = res.FinalTrainLoss, res.FinalTestAcc
	out.frames, out.wireBytes = res.Net.FramesSent, res.Net.BytesSent
	return out, nil
}

// runRecord is one run of a workload: every spec it executes, in order.
type runRecord struct {
	specs []specRun
	err   error
	// steal is the share of the host's CPU time, in percent, the
	// hypervisor gave to other guests during the run.
	steal float64
}

func (r *runRecord) setupSec() float64 {
	s := 0.0
	for _, sr := range r.specs {
		s += sr.setupSec
	}
	return s
}

func (r *runRecord) wallSec() float64 {
	s := 0.0
	for _, sr := range r.specs {
		s += sr.wallSec
	}
	return s
}

func (r *runRecord) cpuSec() float64 {
	s := 0.0
	for _, sr := range r.specs {
		s += sr.cpuSec
	}
	return s
}

func (r *runRecord) workerIters() int {
	n := 0
	for _, sr := range r.specs {
		n += sr.workerIters
	}
	return n
}

func (r *runRecord) images() float64 {
	s := 0.0
	for _, sr := range r.specs {
		s += sr.images
	}
	return s
}

// run executes every spec of one run in order.
func (wl *workload) run(ctx context.Context, seed uint64, h *hooks) *runRecord {
	rec := &runRecord{}
	for _, spec := range wl.specs(seed) {
		sr, err := wl.runSpec(ctx, spec, h)
		if err != nil {
			rec.err = fmt.Errorf("%s: %w", spec.Name, err)
			return rec
		}
		rec.specs = append(rec.specs, sr)
	}
	return rec
}
