package live

import (
	"fmt"
	"io"
	"sync/atomic"

	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/simnet"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// port is the live backend of core's fabric: comm's collectives run over
// it on a worker rank (AR-SGD), core's parameter-server shard on the PS
// rank. Each simnet.Msg travels as one frame on the rank's mailbox, with
// the same Kind, Clock and Seg tags.
//
// A message comm marks Own is the sender's round-tripped contribution; in
// a quantized run it ships as a slice of the round's codec payload, which
// reconstructs to exactly the values it carries. Received codec payloads
// are decoded here, and a gradient frame of a quantized run must carry
// one. Wall-clock membership is exact, so an expired wait is an error,
// never a reason to proceed without a member.
type wirePort struct {
	ep    xport.Endpoint
	mb    *mailbox
	self  int
	codec xport.QuantCodec
	qv    xport.QuantVec // this round's encoded contribution (AR-SGD)
	saved *atomic.Int64  // wire bytes the codec saved on Own sends
	tr    *trace.Tracer
	pid   int // trace track of the codec spans
	tid   int
	// byes counts the BYE frames still due before Recv reports io.EOF:
	// every finishing worker's on the PS rank, none on a worker.
	byes int
}

// port returns the worker's connection for comm's collectives.
func (w *worker) port() *wirePort {
	return &wirePort{ep: w.ep, mb: w.mb, self: w.rank, codec: w.codec, saved: &w.saved,
		tr: w.tr, pid: workerPid, tid: w.rank}
}

// quantize round-trips agg, the worker's contribution to this round, in
// place — the simulator quantizes each worker's own contribution before it
// enters the collective — and keeps the payload for Own sends.
func (pt *wirePort) quantize(agg []float32) {
	if pt.codec == 0 {
		return
	}
	sp := pt.tr.StartSpan("quantize", "quant", pt.pid, pt.tid)
	pt.qv = quantizeVec(pt.codec, agg)
	sp.End()
}

// Send frames m. The transport encodes the frame before Send returns, so
// m.Vec is not retained.
func (pt *wirePort) Send(m simnet.Msg) error {
	f := &xport.Frame{Kind: uint16(m.Kind), From: int32(m.From), Clock: int32(m.Clock),
		Seg: int32(m.Seg), Aux: m.Aux, Vec: m.Vec}
	if m.Own && pt.codec != 0 {
		// An int8 slice keeps the full-vector scale, so the chunk decodes
		// to exactly the round-tripped values in m.Vec.
		qv := sliceQuantVec(pt.qv, m.Off, m.Off+len(m.Vec))
		f.Vec = nil
		f.Data = qv.AppendEncode(nil)
		pt.saved.Add(int64(4*len(m.Vec)) - int64(len(f.Data)))
	}
	return pt.ep.Send(m.To, f)
}

// Recv takes the next frame from the mailbox, decoding a codec payload. It
// absorbs BYE frames and returns io.EOF on the last one due.
func (pt *wirePort) Recv() (simnet.Msg, error) {
	for {
		f, err := pt.mb.recv(recvTimeout)
		if err != nil {
			return simnet.Msg{}, fmt.Errorf("live: rank %d recv: %w", pt.self, err)
		}
		if f.Kind == kindBye {
			if pt.byes == 0 {
				return simnet.Msg{}, fmt.Errorf("live: rank %d: unexpected bye from %d", pt.self, f.From)
			}
			if pt.byes--; pt.byes == 0 {
				return simnet.Msg{}, io.EOF
			}
			continue
		}
		if len(f.Data) > 0 || (pt.codec != 0 && f.Kind == core.KindGrad) {
			sp := pt.tr.StartSpan("dequantize", "quant", pt.pid, pt.tid)
			err := decodeGradPayload(pt.codec, &f)
			sp.End()
			if err != nil {
				return simnet.Msg{}, err
			}
		}
		return simnet.Msg{From: int(f.From), To: pt.self, Kind: int(f.Kind), Clock: int(f.Clock),
			Seg: int(f.Seg), Aux: f.Aux, Vec: f.Vec}, nil
	}
}

// RecvTimeout is Recv: on the wall clock every wait is bounded by
// recvTimeout, and an expired wait is an error.
func (pt *wirePort) RecvTimeout(float64) (simnet.Msg, bool, error) {
	m, err := pt.Recv()
	return m, err == nil, err
}

// Charge is free on the wall clock: the aggregation itself takes the time.
func (pt *wirePort) Charge(int64) {}

// servePS runs the parameter server on mesh rank cfg.Workers: core's shard
// code, the simulator's, over a live port, as one shard owning the whole
// vector. The global starts from the shared init stream (seed → Split(1)),
// which is where the simulator's replica 0 — the source of its global —
// starts too. servePS returns the final global parameters once every
// finishing worker has said goodbye.
func servePS(cfg *core.Config, ep xport.Endpoint, o *Options) ([]float32, error) {
	model := cfg.Real.Factory(rng.New(cfg.Seed).Split(1))
	sh := core.NewShard(cfg, cfg.Workers, ps.NewGlobal(model.FlatParams(nil), cfg.Momentum, cfg.WeightDecay))
	pt := &wirePort{ep: ep, mb: newMailbox(ep), self: cfg.Workers, codec: quantCodec(cfg),
		saved: new(atomic.Int64), pid: coordPid, byes: cfg.Workers}
	ch := newChaos(cfg)
	if ch != nil {
		// A worker dead at the final iteration never says goodbye.
		pt.byes = ch.finisherCount()
	}
	var ckpt nn.Cadence
	if o != nil {
		ckpt, pt.tr = o.ckpt, o.tracer
	}
	var err error
	if cfg.Algo == core.BSP {
		err = bspRounds(cfg, sh, pt, ch, ckpt, model)
	} else {
		err = sh.Serve(pt)
	}
	if err != nil {
		return nil, fmt.Errorf("live: server (%s): %w", cfg.Algo, err)
	}
	return sh.Snapshot(), nil
}

// bspRounds is the live PS's BSP round loop. Each round's barrier width is
// the alive membership — the simulator's elastic aliveCount — and
// connections to workers resuming a round are refreshed before its first
// exchange. The global parameters are checkpointed on the cadence.
func bspRounds(cfg *core.Config, sh *core.Shard, pt *wirePort, ch *chaos, ckpt nn.Cadence, model *nn.Model) error {
	for it := 1; it <= cfg.Iters; it++ {
		expect := cfg.Workers
		if ch != nil {
			if pd, ok := pt.ep.(peerDropper); ok {
				for w := 0; w < cfg.Workers; w++ {
					if ch.resumedAt(w, it) {
						pd.DropPeer(w)
					}
				}
			}
			if expect = ch.aliveCount(it); expect == 0 {
				continue
			}
		}
		if err := sh.BSPRound(pt, it, expect, 1/float32(expect)); err != nil {
			return err
		}
		if ckpt.Due(it) {
			model.SetFlatParams(sh.Snapshot())
			if err := nn.SaveState(ckpt.Path(-1), model, &nn.TrainState{Step: uint64(it)}); err != nil {
				return err
			}
		}
	}
	// Every finishing worker says goodbye after its last round.
	if pt.byes == 0 {
		return nil
	}
	m, err := pt.Recv()
	if err == nil {
		err = fmt.Errorf("unexpected kind %d from %d after the last round", m.Kind, m.From)
	}
	if err == io.EOF {
		return nil
	}
	return err
}
