package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/nn"
	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// layerStat accumulates one layer's training-pass times for one model
// replica and remembers the input shape the layer trained on.
type layerStat struct {
	name  string
	layer nn.Layer // the unwrapped layer, for its geometry
	shape []int    // input shape of the first training forward
	fwdNs int64
	bwdNs int64
	fwdN  int64
	bwdN  int64
}

// modelAcc is the accumulator of one Factory call, which is one replica:
// a worker rank, the parameter server's or the evaluation model. Only the
// goroutine currently computing with the replica writes it; the runtimes
// order successive passes of one replica, so no lock is needed.
type modelAcc struct {
	layers    []*layerStat
	numParams int
	computeNs int64 // training forward+backward
	evalNs    int64 // non-training forwards
	accounted int64 // computeNs at the previous live step
	gid       atomic.Int64
}

// timedLayer wraps an nn.Layer and times every call into it. It forwards
// Name, Params, Forward and Backward; it cannot forward nn's unexported
// arena hook, so a wrapped model allocates its layer scratch afresh where
// the unwrapped model would recycle it.
type timedLayer struct {
	inner nn.Layer
	st    *layerStat
	acc   *modelAcc
	first bool
}

func (l *timedLayer) Name() string        { return l.inner.Name() }
func (l *timedLayer) Params() []*nn.Param { return l.inner.Params() }

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := time.Now()
	y := l.inner.Forward(x, train)
	d := time.Since(t0).Nanoseconds()
	if !train {
		l.acc.evalNs += d
		return y
	}
	if l.st.shape == nil {
		l.st.shape = append([]int(nil), x.Shape...)
	}
	l.st.fwdNs += d
	l.st.fwdN++
	l.acc.computeNs += d
	if l.first {
		l.acc.gid.Store(goid())
	}
	return y
}

func (l *timedLayer) Backward(dout *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	dx := l.inner.Backward(dout)
	d := time.Since(t0).Nanoseconds()
	l.st.bwdNs += d
	l.st.bwdN++
	l.acc.computeNs += d
	return dx
}

// goid returns the calling goroutine's id. The traced live run uses it
// once per step to pair a rank's progress callback, which runs on the
// rank's goroutine, with the replica that goroutine computes on.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// capture is the traced run's recorder: it hands every Factory call its
// own accumulator and, on live runs, splits each rank's step interval into
// the rank's compute and the rest.
type capture struct {
	mu         sync.Mutex
	accs       []*modelAcc
	byRank     map[int]*modelAcc
	lastStep   map[int]time.Time
	noncompute []float64 // ms
}

func newCapture() *capture {
	return &capture{byRank: map[int]*modelAcc{}, lastStep: map[int]time.Time{}}
}

// wrap returns a factory that builds f's model with every layer timed.
// The wrapped model holds the same layers and parameters in the same
// order, so it trains bit-identically.
func (c *capture) wrap(f nn.ModelFactory) nn.ModelFactory {
	return func(r *rng.RNG) *nn.Model {
		m := f(r)
		acc := &modelAcc{numParams: m.NumParams()}
		layers := make([]nn.Layer, len(m.Layers))
		for i, l := range m.Layers {
			st := &layerStat{name: l.Name(), layer: l}
			acc.layers = append(acc.layers, st)
			layers[i] = &timedLayer{inner: l, st: st, acc: acc, first: i == 0}
		}
		c.mu.Lock()
		c.accs = append(c.accs, acc)
		c.mu.Unlock()
		return nn.NewModel(m.Name, layers...)
	}
}

// onStep records one live rank's completed iteration. It runs on the
// rank's goroutine, which is also the goroutine that computed the step.
func (c *capture) onStep(rank int, at time.Time) {
	id := goid()
	c.mu.Lock()
	defer c.mu.Unlock()
	acc := c.byRank[rank]
	if acc == nil {
		for _, a := range c.accs {
			if a.gid.Load() == id {
				acc = a
				c.byRank[rank] = a
				break
			}
		}
	}
	if acc == nil {
		return
	}
	compute := acc.computeNs - acc.accounted
	acc.accounted = acc.computeNs
	if last, ok := c.lastStep[rank]; ok {
		c.noncompute = append(c.noncompute, float64(at.Sub(last).Nanoseconds()-compute)/1e6)
	}
	c.lastStep[rank] = at
}

// reset forgets per-run live state so a further traced run starts its
// step intervals afresh; accumulators keep adding up.
func (c *capture) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byRank = map[int]*modelAcc{}
	c.lastStep = map[int]time.Time{}
}

// trainers returns the accumulators of replicas that trained (workers),
// leaving out evaluation and parameter-server models.
func (c *capture) trainers() []*modelAcc {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*modelAcc
	for _, a := range c.accs {
		if len(a.layers) > 0 && a.layers[0].fwdN > 0 {
			out = append(out, a)
		}
	}
	return out
}

// busyNs is the layer time of every replica, training and evaluation.
func (c *capture) busyNs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ns int64
	for _, a := range c.accs {
		ns += a.computeNs + a.evalNs
	}
	return ns
}
