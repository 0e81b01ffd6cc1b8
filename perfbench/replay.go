package main

import (
	"fmt"
	"sort"
	"time"

	"disttrain/internal/comm"
	"disttrain/internal/core"
	"disttrain/internal/data"
	"disttrain/internal/des"
	"disttrain/internal/grad"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/simnet"
	"disttrain/internal/tensor"
	"disttrain/internal/topo"
	"disttrain/internal/xport"
)

// replayBatch is the least time one timed batch of replay calls spans;
// each replay reports the median per-call time over replayBatches batches.
const (
	replayBatch   = 20 * time.Millisecond
	replayBatches = 5
)

// timeCall returns the median seconds one call of fn takes.
func timeCall(fn func()) float64 {
	fn() // warm caches and lazy allocations
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= replayBatch || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, replayBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}

func randTensor(r *rng.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.RandNormal(r, 1)
	return t
}

func randVec(r *rng.RNG, n int) []float32 {
	return randTensor(r, n).Data
}

// gemmShape is the (rows × f)·(out × f)ᵀ product a conv or dense layer's
// forward pass runs, derived from the layer and its captured input shape.
type gemmShape struct {
	rows, out, f int
	// conv geometry, zero for dense layers
	conv *nn.Conv2D
	in   []int
}

func layerGemm(st *layerStat) (gemmShape, bool) {
	switch l := st.layer.(type) {
	case *nn.Conv2D:
		b, h, w := st.shape[0], st.shape[2], st.shape[3]
		oh := (h+2*l.Pad-l.K)/l.Stride + 1
		ow := (w+2*l.Pad-l.K)/l.Stride + 1
		return gemmShape{rows: b * oh * ow, out: l.OutC, f: l.InC * l.K * l.K, conv: l, in: st.shape}, true
	case *nn.Dense:
		return gemmShape{rows: st.shape[0], out: l.Out, f: l.In}, true
	}
	return gemmShape{}, false
}

// gemmGFLOPS replays a layer's forward GEMM and its two backward GEMMs
// (weight and input gradients) at the captured shape.
func gemmGFLOPS(g gemmShape) (fwd, bwd float64) {
	r := rng.New(7)
	a := randTensor(r, g.rows, g.f)
	w := randTensor(r, g.out, g.f)
	y := tensor.New(g.rows, g.out)
	bias := make([]float32, g.out)
	dy := randTensor(r, g.rows, g.out)
	dw := tensor.New(g.out, g.f)
	dx := tensor.New(g.rows, g.f)
	flops := 2 * float64(g.rows) * float64(g.out) * float64(g.f)
	fwd = flops / timeCall(func() { tensor.MatMulBias(a, w, y, bias) }) / 1e9
	bwd = 2 * flops / timeCall(func() {
		tensor.MatMulTransA(dy, a, dw)
		tensor.MatMul(dy, w, dx)
	}) / 1e9
	return fwd, bwd
}

// convLowering replays one mini-batch of im2col and col2im for a conv
// layer at its captured input shape, in seconds per mini-batch.
func convLowering(g gemmShape) (im2col, col2im float64) {
	l := g.conv
	b, c, h, w := g.in[0], g.in[1], g.in[2], g.in[3]
	r := rng.New(11)
	x := randTensor(r, b, c, h, w)
	dx := tensor.New(b, c, h, w)
	sample := c * h * w
	per := g.rows / b * g.f
	cols := make([]float32, g.rows*g.f)
	var in, out tensor.Tensor
	im2col = timeCall(func() {
		for i := 0; i < b; i++ {
			tensor.Im2colRows(in.Rebind(x.Data[i*sample:(i+1)*sample], c, h, w), l.K, l.K, l.Stride, l.Pad, cols[i*per:(i+1)*per])
		}
	})
	col2im = timeCall(func() {
		for i := 0; i < b; i++ {
			tensor.Col2imRows(cols[i*per:(i+1)*per], c, h, w, l.K, l.K, l.Stride, l.Pad, out.Rebind(dx.Data[i*sample:(i+1)*sample], c, h, w))
		}
	})
	return im2col, col2im
}

// layerMetrics turns the traced run's accumulators into the nn and tensor
// metrics: per-layer pass times (per step, per rank) and the replayed
// kernels at the shapes the layers trained on.
func layerMetrics(c *capture, out map[string]float64) error {
	tr := c.trainers()
	if len(tr) == 0 {
		return fmt.Errorf("traced run trained no wrapped model")
	}
	var stepNs, steps int64
	var im2col, col2im float64
	convs := 0
	for i, st := range tr[0].layers {
		var fwd, bwd, fn, bn int64
		for _, a := range tr {
			fwd += a.layers[i].fwdNs
			bwd += a.layers[i].bwdNs
			fn += a.layers[i].fwdN
			bn += a.layers[i].bwdN
		}
		if fn == 0 || bn == 0 {
			return fmt.Errorf("layer %s: %d forward and %d backward passes traced", st.name, fn, bn)
		}
		out["nn."+st.name+".fwd_ms"] = float64(fwd) / float64(fn) / 1e6
		out["nn."+st.name+".bwd_ms"] = float64(bwd) / float64(bn) / 1e6
		stepNs += fwd + bwd
		if i == 0 {
			steps = fn
		}
		g, ok := layerGemm(st)
		if !ok {
			continue
		}
		f, b := gemmGFLOPS(g)
		out["tensor.gemm_gflops."+st.name+".fwd"] = f
		out["tensor.gemm_gflops."+st.name+".bwd"] = b
		if g.conv != nil {
			i2c, c2i := convLowering(g)
			im2col += i2c
			col2im += c2i
			convs++
		}
	}
	out["nn.step_compute_ms"] = float64(stepNs) / float64(steps) / 1e6
	if convs > 0 {
		out["tensor.im2col_us"] = im2col * 1e6
		out["tensor.col2im_us"] = col2im * 1e6
	}
	return nil
}

// capturedBatch is the mini-batch size the traced replicas trained on.
func capturedBatch(c *capture) int {
	return c.trainers()[0].layers[0].shape[0]
}

// vectorReplays times the per-step vector operations of the opt, data,
// grad and ps layers the workload declares, at the captured parameter
// count and batch size.
func vectorReplays(c *capture, cfg core.Config, world int, layers []string, out map[string]float64) {
	n := c.trainers()[0].numParams
	r := rng.New(13)
	params, g := randVec(r, n), randVec(r, n)
	sgd := opt.NewSGD(n, cfg.Momentum, cfg.WeightDecay)
	idx := data.NewSampler(data.ShardIndices(cfg.Real.Train.N(), world, 0), capturedBatch(c), r.Split(1)).Next()
	var xb *tensor.Tensor
	var yb []int
	q := grad.Quantize8(g)
	dst := make([]float32, n)
	global := ps.NewGlobal(params, cfg.Momentum, cfg.WeightDecay)
	whole := []ps.Range{{Off: 0, Len: n}}
	replays := map[string]func(){
		"opt.sgd_step_us":     func() { sgd.Step(params, g, 0.01) },
		"data.gather_us":      func() { xb, yb = cfg.Real.Train.Gather(idx, xb, yb) },
		"grad.quantize8_us":   func() { q = grad.Quantize8(g) },
		"grad.dequantize8_us": func() { _ = grad.Dequantize8(q, dst) },
		"ps.apply_us":         func() { global.ApplyGrad(whole, g, 1/float32(world), 0.01) },
	}
	for _, name := range sortedKeys(replays) {
		if contains(layers, name) {
			out[name] = timeCall(replays[name]) * 1e6
		}
	}
}

// frameReplays times encoding and decoding one frame of the mean size the
// traced run put on the wire, in the run's codec.
func frameReplays(frames, wireBytes int64, quant bool, out map[string]float64) error {
	if frames == 0 {
		return fmt.Errorf("traced run sent no frames")
	}
	size := int(wireBytes / frames)
	empty := (&xport.Frame{}).EncodedLen()
	f := &xport.Frame{Kind: 1}
	r := rng.New(17)
	if quant {
		qv := xport.QuantVec{Codec: xport.QuantInt8, Scale: 0.01, I8: make([]int8, max(size-empty-9, 1))}
		for i := range qv.I8 {
			qv.I8[i] = int8(r.Intn(255) - 127)
		}
		f.Data = qv.AppendEncode(nil)
	} else {
		f.Vec = randVec(r, max((size-empty)/4, 1))
	}
	var buf []byte
	out["xport.encode_us"] = timeCall(func() { buf = f.AppendEncode(buf[:0]) }) * 1e6
	var err error
	out["xport.decode_us"] = timeCall(func() {
		var fr xport.Frame
		if fr, err = xport.DecodeFrame(buf, xport.MaxFrameBytes); err == nil && quant {
			_, err = xport.DecodeQuantVec(fr.Data)
		}
	}) * 1e6
	return err
}

// simReplays times the des, topo and comm calls at the world size and
// gradient size of the run's first (largest) configuration.
func simReplays(cfg core.Config, out map[string]float64) error {
	W := cfg.Workers
	var terr error
	out["topo.build_ms"] = timeCall(func() { _, terr = topo.New(cfg.Cluster, W) }) * 1e3
	if terr != nil {
		return terr
	}

	// Event engine: W self-rescheduling callbacks keep a W-deep heap.
	const perProc = 50
	out["des.event_ns"] = timeCall(func() {
		eng := des.NewEngine()
		left := W * perProc
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(1e-3, tick)
			}
		}
		for i := 0; i < W; i++ {
			eng.Schedule(float64(i)*1e-6, tick)
		}
		eng.Run(0)
	}) / float64(W*perProc) * 1e9

	// Process switches: W processes sleeping in turn.
	out["des.proc_switch_ns"] = timeCall(func() {
		eng := des.NewEngine()
		for i := 0; i < W; i++ {
			eng.Spawn("p", func(p *des.Proc) {
				for j := 0; j < perProc; j++ {
					p.Sleep(1e-3)
				}
			})
		}
		eng.Run(0)
	}) / float64(W*perProc) * 1e9

	if cfg.Collective != "hierarchical" {
		return nil
	}
	var cerr error
	out["comm.collective_ms"] = timeCall(func() {
		if err := hierarchicalAllReduce(cfg); err != nil {
			cerr = err
		}
	}) * 1e3
	return cerr
}

// hierarchicalAllReduce runs one cost-only hierarchical AllReduce of the
// config's gradient over its whole world on a fresh engine and network.
func hierarchicalAllReduce(cfg core.Config) error {
	W := cfg.Workers
	tp, err := topo.New(cfg.Cluster, W)
	if err != nil {
		return err
	}
	eng := des.NewEngine()
	net := simnet.New(eng, cfg.Cluster)
	nodes := make([]int, W)
	for w := range nodes {
		nodes[w] = net.AddNode(cfg.Cluster.MachineOfWorker(w)).ID
	}
	params := int(cfg.Workload.Profile.TotalParams())
	bytes := cfg.Workload.Profile.TotalBytes()
	errs := make([]error, W)
	for w := 0; w < W; w++ {
		w := w
		eng.Spawn("ar", func(p *des.Proc) {
			var stash []simnet.Msg
			_, _, errs[w] = comm.Collective(p, comm.CollectiveOpts{
				Op: comm.OpHierarchicalAllReduce, Net: net, Nodes: nodes, Self: w,
				VirtualLen: params, Bytes: bytes, Kind: 1, Clock: 1, Stash: &stash,
				Groups: tp.Groups,
			})
		})
	}
	if stuck := eng.Run(0); len(stuck) > 0 {
		return fmt.Errorf("hierarchical allreduce replay: %d processes stuck", len(stuck))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys lists m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
