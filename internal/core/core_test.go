package core

import (
	"context"
	"math"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/grad"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

// costConfig builds a fast cost-only config on the paper cluster.
func costConfig(algo Algo, workers, iters int) Config {
	cfg := Config{
		Algo:     algo,
		Cluster:  cluster.Paper56G(workers),
		Workers:  workers,
		Workload: costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128),
		Iters:    iters,
		Seed:     7,
		Momentum: 0.9,
		LR:       opt.Schedule{Base: 0.1},
	}
	switch algo {
	case SSP:
		cfg.Staleness = 3
	case EASGD:
		cfg.Tau = 4
	case GoSGD:
		cfg.GossipP = 0.5
	}
	return cfg
}

// realConfig builds a real-math config: MLP on Gaussian clusters, tiny and
// fast, with ResNet-50 paper-scale timing.
func realConfig(algo Algo, workers, iters int, seed uint64) Config {
	r := rng.New(seed + 1000)
	ds := data.GenGauss(r, 600, 3, 0.45)
	train, test := ds.Split(r.Split(1), 120)
	cfg := costConfig(algo, workers, iters)
	cfg.Seed = seed
	cfg.LR = opt.Schedule{Base: 0.05}
	cfg.Real = &RealConfig{
		Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 16, 3) },
		Train:   train,
		Test:    test,
		Batch:   16,
	}
	return cfg
}

func TestAllAlgorithmsRunCostOnly(t *testing.T) {
	for _, algo := range Algos() {
		res, err := Run(context.Background(), costConfig(algo, 8, 10))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := res.Metrics.TotalIters(); got != 80 {
			t.Fatalf("%s: total iters %d, want 80", algo, got)
		}
		if res.VirtualSec <= 0 {
			t.Fatalf("%s: no virtual time elapsed", algo)
		}
		if res.Throughput <= 0 {
			t.Fatalf("%s: throughput %v", algo, res.Throughput)
		}
	}
}

func TestAllAlgorithmsLearnReal(t *testing.T) {
	// Every algorithm must beat chance (1/3) clearly on the easy cluster
	// task at small scale; the well-aggregating ones should be near-perfect.
	for _, algo := range Algos() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			cfg := realConfig(algo, 4, 150, 11)
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalTestAcc < 0.7 {
				t.Fatalf("%s: final acc %.3f", algo, res.FinalTestAcc)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, algo := range []Algo{BSP, ASP, ADPSGD} {
		r1, err := Run(context.Background(), realConfig(algo, 4, 40, 5))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(context.Background(), realConfig(algo, 4, 40, 5))
		if err != nil {
			t.Fatal(err)
		}
		if r1.VirtualSec != r2.VirtualSec {
			t.Fatalf("%s: virtual time differs: %v vs %v", algo, r1.VirtualSec, r2.VirtualSec)
		}
		if r1.FinalTestAcc != r2.FinalTestAcc {
			t.Fatalf("%s: accuracy differs: %v vs %v", algo, r1.FinalTestAcc, r2.FinalTestAcc)
		}
		if r1.Net.TotalBytes != r2.Net.TotalBytes {
			t.Fatalf("%s: traffic differs", algo)
		}
	}
}

func TestBSPEqualsARSGD(t *testing.T) {
	// BSP (PS, averaged gradient, one global optimizer) and AR-SGD
	// (AllReduce, averaged gradient, per-worker identical optimizers) are
	// the same algorithm mathematically; with the same seed they must
	// produce near-identical trajectories (up to float32 summation order).
	b, err := Run(context.Background(), realConfig(BSP, 4, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), realConfig(ARSGD, 4, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.FinalTestAcc-a.FinalTestAcc) > 0.03 {
		t.Fatalf("BSP acc %.4f vs AR-SGD acc %.4f", b.FinalTestAcc, a.FinalTestAcc)
	}
	if math.Abs(b.FinalTrainLoss-a.FinalTrainLoss) > 0.1*math.Max(b.FinalTrainLoss, 0.05) {
		t.Fatalf("BSP loss %.5f vs AR-SGD loss %.5f", b.FinalTrainLoss, a.FinalTrainLoss)
	}
}

func TestSingleWorkerDegeneratesToSGD(t *testing.T) {
	// With one worker, BSP / ASP / SSP all reduce to sequential SGD through
	// the PS; their final metrics must agree exactly.
	var accs []float64
	for _, algo := range []Algo{BSP, ASP, SSP} {
		cfg := realConfig(algo, 1, 80, 9)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, res.FinalTestAcc)
	}
	if accs[0] != accs[1] || accs[1] != accs[2] {
		t.Fatalf("single-worker trajectories diverge: %v", accs)
	}
}

func TestCommComplexityTable1(t *testing.T) {
	// Measure bytes/iteration and compare against Table I's complexity
	// column. M = model bytes, N = workers, l = workers/machine, τ, p, s as
	// configured. Control traffic (acks, pulls) is a rounding error at
	// ResNet-50 scale.
	const workers = 8
	const iters = 30
	M := float64(costmodel.ResNet50().TotalBytes())
	N := float64(workers)

	measure := func(cfg Config) float64 {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Net.TotalBytes) / float64(iters)
	}
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}

	// ASP: O(2MN) per iteration.
	if got := measure(costConfig(ASP, workers, iters)); !within(got, 2*M*N, 0.05) {
		t.Fatalf("ASP bytes/iter = %.3e, want ~%.3e", got, 2*M*N)
	}

	// BSP without local aggregation: O(2MN).
	bsp := costConfig(BSP, workers, iters)
	if got := measure(bsp); !within(got, 2*M*N, 0.05) {
		t.Fatalf("BSP bytes/iter = %.3e, want ~%.3e", got, 2*M*N)
	}

	// BSP with local aggregation: O(2MN/l) PS-bound traffic, l = 4 (the
	// member→leader gathers ride the intra-machine bus and are not PS
	// traffic).
	bspLocal := costConfig(BSP, workers, iters)
	bspLocal.LocalAgg = true
	resLocal, err := Run(context.Background(), bspLocal)
	if err != nil {
		t.Fatal(err)
	}
	psBytes := resLocal.Net.BytesByKind[KindGrad] + resLocal.Net.BytesByKind[KindParams]
	gotPS := float64(psBytes) / float64(iters)
	if !within(gotPS, 2*M*N/4, 0.05) {
		t.Fatalf("BSP+localAgg PS bytes/iter = %.3e, want ~%.3e", gotPS, 2*M*N/4)
	}

	// EASGD: O(2MN/τ), τ=4.
	if got := measure(costConfig(EASGD, workers, iters)); !within(got, 2*M*N/4, 0.1) {
		t.Fatalf("EASGD bytes/iter = %.3e, want ~%.3e", got, 2*M*N/4)
	}

	// SSP: O((1 + 1/(s+1))·MN), s=3.
	if got := measure(costConfig(SSP, workers, iters)); !within(got, (1+1.0/4)*M*N, 0.1) {
		t.Fatalf("SSP bytes/iter = %.3e, want ~%.3e", got, (1+1.0/4)*M*N)
	}

	// AR-SGD ring: 2M(N-1) total per iteration ≈ O(2MN).
	if got := measure(costConfig(ARSGD, workers, iters)); !within(got, 2*M*(N-1), 0.05) {
		t.Fatalf("AR-SGD bytes/iter = %.3e, want ~%.3e", got, 2*M*(N-1))
	}

	// GoSGD: O(MN·p), p=0.5 — statistical, wide tolerance.
	if got := measure(costConfig(GoSGD, workers, iters)); !within(got, M*N*0.5, 0.4) {
		t.Fatalf("GoSGD bytes/iter = %.3e, want ~%.3e", got, M*N*0.5)
	}

	// AD-PSGD: O(MN): N/2 active exchanges × 2 messages of M.
	if got := measure(costConfig(ADPSGD, workers, iters)); !within(got, M*N, 0.1) {
		t.Fatalf("AD-PSGD bytes/iter = %.3e, want ~%.3e", got, M*N)
	}
}

func TestSSPZeroStalenessPullsEveryIteration(t *testing.T) {
	cfg := costConfig(SSP, 4, 20)
	cfg.Staleness = 0
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// s=0: every iteration sends M and pulls M back → ~2MN/iter.
	M := float64(costmodel.ResNet50().TotalBytes())
	got := float64(res.Net.TotalBytes) / 20
	want := 2 * M * 4
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("SSP(s=0) bytes/iter = %.3e, want ~%.3e", got, want)
	}
}

func TestEASGDCommunicatesOnlyEveryTau(t *testing.T) {
	cfg := costConfig(EASGD, 4, 16)
	cfg.Tau = 8
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16 iters, τ=8 → 2 rounds × 4 workers × 2M.
	M := float64(costmodel.ResNet50().TotalBytes())
	want := 2.0 * 4 * 2 * M
	got := float64(res.Net.TotalBytes)
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("EASGD total bytes %.3e, want %.3e", got, want)
	}
}

func TestADPSGDNoDeadlockUnderLoad(t *testing.T) {
	// The bipartite split must keep 24 workers deadlock-free.
	res, err := Run(context.Background(), costConfig(ADPSGD, 24, 15))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalIters() != 24*15 {
		t.Fatalf("iters = %d", res.Metrics.TotalIters())
	}
}

func TestWaitFreeBPNotSlower(t *testing.T) {
	base := costConfig(ASP, 8, 20)
	base.Sharding = ShardLayerWise
	res1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	wfbp := costConfig(ASP, 8, 20)
	wfbp.Sharding = ShardLayerWise
	wfbp.WaitFreeBP = true
	res2, err := Run(context.Background(), wfbp)
	if err != nil {
		t.Fatal(err)
	}
	if res2.VirtualSec > res1.VirtualSec*1.02 {
		t.Fatalf("WFBP slower: %.3f vs %.3f", res2.VirtualSec, res1.VirtualSec)
	}
}

func TestDGCReducesTraffic(t *testing.T) {
	base := costConfig(ASP, 8, 20)
	res1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	dgc := costConfig(ASP, 8, 20)
	d := grad.DefaultDGC(0.9, 0)
	dgc.DGC = &d
	res2, err := Run(context.Background(), dgc)
	if err != nil {
		t.Fatal(err)
	}
	// Gradients shrink ~500×; replies stay dense, so total should be a bit
	// over half of baseline.
	if float64(res2.Net.TotalBytes) > 0.6*float64(res1.Net.TotalBytes) {
		t.Fatalf("DGC bytes %d not << baseline %d", res2.Net.TotalBytes, res1.Net.TotalBytes)
	}
}

func TestDGCPreservesAccuracy(t *testing.T) {
	base := realConfig(BSP, 4, 200, 21)
	r1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	withDGC := realConfig(BSP, 4, 200, 21)
	d := grad.DGCConfig{Ratio: 0.05, Momentum: 0.9, ClipNorm: 4, WarmupIters: 40}
	withDGC.DGC = &d
	r2, err := Run(context.Background(), withDGC)
	if err != nil {
		t.Fatal(err)
	}
	if r2.FinalTestAcc < r1.FinalTestAcc-0.08 {
		t.Fatalf("DGC destroyed accuracy: %.3f vs %.3f", r2.FinalTestAcc, r1.FinalTestAcc)
	}
}

func TestShardingSpeedsUpASP(t *testing.T) {
	slow := costConfig(ASP, 16, 15)
	slow.Cluster = cluster.Paper10G(16)
	slow.Sharding = ShardNone
	r1, err := Run(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	sharded := costConfig(ASP, 16, 15)
	sharded.Cluster = cluster.Paper10G(16)
	sharded.Sharding = ShardLayerWise
	r2, err := Run(context.Background(), sharded)
	if err != nil {
		t.Fatal(err)
	}
	if r2.VirtualSec >= r1.VirtualSec {
		t.Fatalf("sharding did not help ASP: %.3f vs %.3f", r2.VirtualSec, r1.VirtualSec)
	}
}

func TestBalancedShardingBeatsLayerWiseOnVGG(t *testing.T) {
	mk := func(s Sharding) Config {
		cfg := costConfig(ASP, 16, 10)
		cfg.Cluster = cluster.Paper10G(16)
		cfg.Workload = costmodel.NewWorkload(costmodel.VGG16(), costmodel.TitanV(), 96)
		cfg.Sharding = s
		return cfg
	}
	lw, err := Run(context.Background(), mk(ShardLayerWise))
	if err != nil {
		t.Fatal(err)
	}
	bal, err := Run(context.Background(), mk(ShardBalanced))
	if err != nil {
		t.Fatal(err)
	}
	if bal.VirtualSec >= lw.VirtualSec {
		t.Fatalf("balanced (%.2f) not faster than layer-wise (%.2f) on VGG-16", bal.VirtualSec, lw.VirtualSec)
	}
}

func TestPSBottleneckASPSlowOn10G(t *testing.T) {
	// The paper's headline: on 10 Gbps, ASP scales worse than BSP with
	// local aggregation because everything funnels through the PS.
	mk := func(algo Algo) Config {
		cfg := costConfig(algo, 16, 10)
		cfg.Cluster = cluster.Paper10G(16)
		cfg.Sharding = ShardLayerWise
		if algo == BSP {
			cfg.LocalAgg = true
		}
		return cfg
	}
	asp, err := Run(context.Background(), mk(ASP))
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := Run(context.Background(), mk(BSP))
	if err != nil {
		t.Fatal(err)
	}
	if asp.Throughput >= bsp.Throughput {
		t.Fatalf("expected PS bottleneck: ASP %.0f img/s vs BSP %.0f img/s on 10G", asp.Throughput, bsp.Throughput)
	}
}

func TestBandwidthHelpsASPMoreThanBSP(t *testing.T) {
	run := func(algo Algo, c cluster.Config) float64 {
		cfg := costConfig(algo, 16, 10)
		cfg.Cluster = c
		cfg.Sharding = ShardLayerWise
		if algo == BSP {
			cfg.LocalAgg = true
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	aspGain := run(ASP, cluster.Paper56G(16)) / run(ASP, cluster.Paper10G(16))
	bspGain := run(BSP, cluster.Paper56G(16)) / run(BSP, cluster.Paper10G(16))
	if aspGain <= bspGain {
		t.Fatalf("56G gain: ASP %.2fx vs BSP %.2fx — paper expects ASP to benefit more", aspGain, bspGain)
	}
}

func TestBreakdownRecorded(t *testing.T) {
	cfg := costConfig(BSP, 8, 10)
	cfg.LocalAgg = true
	cfg.Sharding = ShardLayerWise
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Metrics.MeanBreakdown()
	if b.Total() <= 0 {
		t.Fatal("empty breakdown")
	}
	if b[0] <= 0 { // compute
		t.Fatal("no compute time recorded")
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Config{
		{Algo: "nope", Cluster: cluster.Paper56G(4), Iters: 1,
			Workload: costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128)},
		func() Config { c := costConfig(EASGD, 4, 5); c.Tau = 0; return c }(),
		func() Config { c := costConfig(GoSGD, 4, 5); c.GossipP = 0; return c }(),
		func() Config { c := costConfig(GoSGD, 1, 5); c.GossipP = 0.5; return c }(),
		func() Config { c := costConfig(ADPSGD, 4, 5); c.Sharding = ShardLayerWise; return c }(),
		func() Config { c := costConfig(EASGD, 4, 5); c.WaitFreeBP = true; return c }(),
		func() Config {
			c := costConfig(EASGD, 4, 5)
			d := grad.DefaultDGC(0.9, 0)
			c.DGC = &d
			return c
		}(),
		func() Config { c := costConfig(ASP, 4, 5); c.LocalAgg = true; return c }(),
		func() Config { c := costConfig(BSP, 4, 0); return c }(),
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestGossipLowPReducesTraffic(t *testing.T) {
	high := costConfig(GoSGD, 8, 40)
	high.GossipP = 1
	rHigh, err := Run(context.Background(), high)
	if err != nil {
		t.Fatal(err)
	}
	low := costConfig(GoSGD, 8, 40)
	low.GossipP = 0.1
	rLow, err := Run(context.Background(), low)
	if err != nil {
		t.Fatal(err)
	}
	if rLow.Net.TotalBytes*4 >= rHigh.Net.TotalBytes {
		t.Fatalf("p=0.1 traffic %d not << p=1 traffic %d", rLow.Net.TotalBytes, rHigh.Net.TotalBytes)
	}
}

// baseLRSchedule builds a flat schedule at the given rate for extension
// tests that need to control aggressiveness directly.
func baseLRSchedule(lr float64) opt.Schedule { return opt.Schedule{Base: lr} }

// TestDeterminismAllAlgorithms runs every implemented algorithm (the
// paper's seven plus the three reviewed-but-not-selected extensions) twice
// in cost-only mode and requires bit-identical timing and traffic.
func TestDeterminismAllAlgorithms(t *testing.T) {
	all := append(Algos(), DPSGD, AdaComm, Hogwild)
	for _, algo := range all {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			mk := func() Config {
				cfg := costConfig(algo, 4, 12)
				if algo == AdaComm {
					cfg.Tau = 4
				}
				if algo == Hogwild {
					cfg.Cluster = cluster.Config{
						Machines: 1, WorkersPerMachine: 4,
						InterBytesPerSec: cluster.Gbps(10),
						IntraBytesPerSec: cluster.Gbps(128),
						LatencySec:       1e-6,
					}
				}
				return cfg
			}
			r1, err := Run(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			if r1.VirtualSec != r2.VirtualSec || r1.Net.TotalBytes != r2.Net.TotalBytes ||
				r1.Net.TotalMsgs != r2.Net.TotalMsgs {
				t.Fatalf("nondeterministic: %v/%d/%d vs %v/%d/%d",
					r1.VirtualSec, r1.Net.TotalBytes, r1.Net.TotalMsgs,
					r2.VirtualSec, r2.Net.TotalBytes, r2.Net.TotalMsgs)
			}
		})
	}
}
