package core

import (
	"fmt"
	"io"
	"slices"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/ps"
	"disttrain/internal/simnet"
)

// Message kinds, shared by the simulator's simnet messages and the live
// runtime's xport frames: one number per kind on both clocks, so a packet
// capture of a live run reads against the simulator's taxonomy.
const (
	KindGrad = iota + 1
	KindSparseGrad
	KindParams
	KindPull
	KindAck
	KindEASGDPush
	KindEASGDReply
	KindAllReduce
	KindGossip
	KindExchangeReq
	KindExchangeReply
	KindLocalGather
	KindLocalBcast
	// KindResume is a restarted live worker's notice to its AR-SGD peers
	// that its new incarnation is listening (Clock = its first round). The
	// simulator never sends it.
	KindResume
)

// PSPort is a parameter-server shard's connection to its fabric: a
// comm.Port plus a bounded receive and the shard's aggregation cost. The
// backend supplies the clock — simnet in virtual time for the simulator,
// an xport endpoint in wall time for the live PS rank — and the shard code
// is the same on both.
type PSPort interface {
	// Send ships m to node m.To. The shard never touches a vector again
	// after sending it, so the backend may keep m.Vec.
	Send(m simnet.Msg) error
	// Recv returns the next message addressed to the shard. It returns
	// io.EOF once no worker will send again.
	Recv() (simnet.Msg, error)
	// RecvTimeout is Recv bounded by sec seconds of the backend's clock;
	// ok is false when the wait expired. A backend whose membership is
	// exact reports an expired wait as an error instead.
	RecvTimeout(sec float64) (m simnet.Msg, ok bool, err error)
	// Charge accounts for aggregating one message of the given wire size.
	Charge(bytes int64)
}

// Shard is one parameter-server shard: its slice of the global parameters
// and the policy of every centralized algorithm — BSP's aggregate-then-
// update round, ASP's apply-on-arrival (with optional staleness damping),
// SSP's clock service and EASGD's elastic move. The simulator's shard
// processes and the live PS rank both run it; each caller keeps its own
// round loop, membership and fault bookkeeping.
type Shard struct {
	cfg    *Config
	seg    int // shard index, stamped on replies
	node   int // this shard's node ID, the From of its replies
	global *ps.Global
	ranges []ps.Range
	vecLen int // payload length every worker message must carry
	// replyBytes is the wire size of one parameter reply.
	replyBytes func() int64
	// timeout bounds fault-mode waits (BSP barrier, SSP's parked-pull
	// re-check) in the backend's seconds; 0 blocks.
	timeout float64
	// dead reports workers excluded from SSP's staleness bound; nil when
	// membership is fixed.
	dead   func(w int) bool
	faults *metrics.FaultStats

	// BSP: gradients that arrived ahead of their round, and per-round
	// scratch reused across rounds.
	stash   []simnet.Msg
	msgs    []simnet.Msg
	agg     []float32
	replyTo []int

	// ASP staleness damping: global updates so far, and the update count
	// each worker's parameters were taken at.
	updates  int
	pulledAt []int

	// SSP clock service (shard 0): each worker's clock and the pulls
	// parked until the staleness bound holds.
	clocks []int
	parked []pull
}

// pull is an SSP pull request parked at the clock service.
type pull struct{ worker, clock int }

// NewShard returns a single shard owning all of global's parameters, with
// dense parameter replies and fixed membership — the live PS rank.
func NewShard(cfg *Config, node int, global *ps.Global) *Shard {
	n := len(global.Params)
	return newShard(&Shard{cfg: cfg, node: node, global: global, ranges: ps.Single(n)[0], vecLen: n,
		replyBytes: func() int64 { return int64(4 * n) }, faults: &metrics.FaultStats{}})
}

func newShard(s *Shard) *Shard {
	switch s.cfg.Algo {
	case ASP:
		s.pulledAt = make([]int, s.cfg.Workers)
	case SSP:
		s.clocks = make([]int, s.cfg.Workers)
	}
	return s
}

// Snapshot returns a fresh copy of the shard's global parameters, nil in
// cost-only mode.
func (s *Shard) Snapshot() []float32 {
	if !s.global.MathOn() {
		return nil
	}
	out := make([]float32, s.vecLen)
	s.global.Snapshot(s.ranges, out)
	return out
}

// params builds a parameter reply for node to carrying vec.
func (s *Shard) params(to, clock int, vec []float32) simnet.Msg {
	return simnet.Msg{From: s.node, To: to, Kind: KindParams, Clock: clock, Seg: s.seg,
		Bytes: s.replyBytes(), Vec: vec}
}

// check rejects a worker message that would panic or silently skew the
// model if summed or applied: a sender outside the cohort, a dense vector
// that is not vecLen long, or a sparse one whose indices and values
// disagree or fall outside it.
func (s *Shard) check(m *simnet.Msg) error {
	if m.From < 0 || m.From >= s.cfg.Workers {
		return fmt.Errorf("core: shard %d: message from %d, outside %d workers", s.seg, m.From, s.cfg.Workers)
	}
	if !s.global.MathOn() {
		return nil
	}
	if m.Kind != KindSparseGrad {
		if len(m.Vec) != s.vecLen {
			return fmt.Errorf("core: shard %d: kind %d from %d carries %d elements, want %d",
				s.seg, m.Kind, m.From, len(m.Vec), s.vecLen)
		}
		return nil
	}
	if len(m.SparseIdx) != len(m.Vec) {
		return fmt.Errorf("core: shard %d: sparse gradient from %d has %d indices for %d elements",
			s.seg, m.From, len(m.SparseIdx), len(m.Vec))
	}
	for _, i := range m.SparseIdx {
		if i < 0 || int(i) >= s.vecLen {
			return fmt.Errorf("core: shard %d: sparse index %d from %d outside %d elements", s.seg, i, m.From, s.vecLen)
		}
	}
	return nil
}

func (s *Shard) unexpected(m *simnet.Msg) error {
	return fmt.Errorf("core: %s shard %d: unexpected kind %d from %d", s.cfg.Algo, s.seg, m.Kind, m.From)
}

// BSPRound runs one synchronous round: it takes expect gradients of the
// given clock, sums them in ascending sender rank, applies the scaled sum
// once, and replies to every sender, in arrival order, with the round's
// parameters. Float addition is order-sensitive; pinning the order is what
// makes the round's result independent of delivery order on either clock.
//
// A gradient for a later round waits in the stash for its round. With a
// timeout set, the round closes with whoever arrived when a wait expires;
// a gradient that arrives after its round closed is dropped and counted,
// never summed into another round (its sender gets the current parameters
// back).
func (s *Shard) BSPRound(port PSPort, clock, expect int, scale float32) error {
	msgs := s.msgs[:0]
	keep := s.stash[:0]
	for _, m := range s.stash {
		switch {
		case m.Clock > clock:
			keep = append(keep, m)
		case m.Clock == clock && len(msgs) < expect:
			port.Charge(m.Bytes)
			msgs = append(msgs, m)
		default:
			if err := s.late(port, &m); err != nil {
				return err
			}
		}
	}
	s.stash = keep
	for len(msgs) < expect {
		m, ok, err := s.recvRound(port)
		if err != nil {
			return err
		}
		if !ok {
			s.faults.Timeouts++
			break // proceed with whoever arrived
		}
		if m.Kind != KindGrad && m.Kind != KindSparseGrad {
			return s.unexpected(&m)
		}
		if err := s.check(&m); err != nil {
			return err
		}
		switch {
		case m.Clock > clock:
			s.stash = append(s.stash, m)
			continue
		case m.Clock < clock:
			if err := s.late(port, &m); err != nil {
				return err
			}
			continue
		}
		port.Charge(m.Bytes)
		msgs = append(msgs, m)
	}
	s.replyTo = s.replyTo[:0]
	for _, m := range msgs {
		s.replyTo = append(s.replyTo, m.From)
	}
	slices.SortFunc(msgs, func(a, b simnet.Msg) int { return a.From - b.From })
	for i := 1; i < len(msgs); i++ {
		if msgs[i].From == msgs[i-1].From {
			return fmt.Errorf("core: bsp shard %d: two gradients from %d for clock %d", s.seg, msgs[i].From, clock)
		}
	}
	lr := s.cfg.LR.At(clock - 1)
	var agg []float32
	if s.global.MathOn() && s.cfg.DGC == nil {
		if s.agg == nil {
			s.agg = make([]float32, s.vecLen)
		}
		agg = s.agg
		clear(agg)
	}
	for _, m := range msgs {
		if m.Kind == KindSparseGrad {
			// DGC: a plain sparse step per message; linearity makes
			// scale-per-message equal to one aggregated step.
			s.global.ApplySparse(m.SparseIdx, m.Vec, scale, lr)
		} else if agg != nil {
			addRanges(agg, m.Vec, s.ranges)
		}
	}
	if s.cfg.DGC == nil {
		s.global.ApplyGrad(s.ranges, agg, scale, lr)
	}
	clear(msgs) // drop the payload references until the next round
	s.msgs = msgs[:0]
	// Recipients only read the reply, so one snapshot serves them all.
	snap := s.Snapshot()
	for _, to := range s.replyTo {
		if err := port.Send(s.params(to, clock, snap)); err != nil {
			return err
		}
	}
	return nil
}

// late drops a gradient whose round has already closed and answers it
// with the current parameters, so a sender that fell a round behind
// resynchronizes instead of missing every later round's barrier too.
func (s *Shard) late(port PSPort, m *simnet.Msg) error {
	s.faults.LateGrads++
	return port.Send(s.params(m.From, m.Clock, s.Snapshot()))
}

// recvRound is one BSP barrier wait: bounded by the timeout when one is
// set, blocking otherwise.
func (s *Shard) recvRound(port PSPort) (simnet.Msg, bool, error) {
	if s.timeout > 0 {
		return port.RecvTimeout(s.timeout)
	}
	m, err := port.Recv()
	return m, err == nil, err
}

// Serve runs the asynchronous centralized algorithms (ASP, SSP, EASGD and
// AdaComm) on this shard: it handles every message as it arrives until the
// port reports the end of the stream.
func (s *Shard) Serve(port PSPort) error {
	// fruitless caps SSP's fault-mode re-check spin: while pulls are
	// parked the clock service wakes on a timeout to re-evaluate
	// liveness, but after a few barren wakeups it goes back to blocking so
	// an otherwise-finished run can drain.
	fruitless := 0
	for {
		var m simnet.Msg
		var err error
		if s.timeout > 0 && len(s.parked) > 0 && fruitless < 3 {
			var ok bool
			if m, ok, err = port.RecvTimeout(s.timeout); err == nil && !ok {
				s.faults.Timeouts++
				fruitless++
				hit, err := s.release(port)
				if err != nil {
					return err
				}
				if hit {
					fruitless = 0
				}
				continue
			}
		} else {
			m, err = port.Recv()
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fruitless = 0
		switch s.cfg.Algo {
		case ASP:
			err = s.asp(port, &m)
		case SSP:
			err = s.ssp(port, &m)
		case EASGD, AdaComm:
			err = s.easgd(port, &m)
		default:
			err = fmt.Errorf("core: no shard policy for %s", s.cfg.Algo)
		}
		if err != nil {
			return err
		}
	}
}

// asp applies a gradient on arrival and replies with the updated
// parameters. With staleness damping, the step shrinks by one plus the
// number of global updates the sender's parameters have missed.
func (s *Shard) asp(port PSPort, m *simnet.Msg) error {
	if m.Kind != KindGrad && m.Kind != KindSparseGrad {
		return s.unexpected(m)
	}
	if err := s.check(m); err != nil {
		return err
	}
	port.Charge(m.Bytes)
	lr := s.cfg.LR.At(m.Clock - 1)
	if s.cfg.StalenessDamping {
		lr /= float32(1 + s.updates - s.pulledAt[m.From])
	}
	s.updates++
	s.pulledAt[m.From] = s.updates
	if m.Kind == KindSparseGrad {
		s.global.ApplySparse(m.SparseIdx, m.Vec, 1, lr)
	} else {
		s.global.ApplyGrad(s.ranges, m.Vec, 1, lr)
	}
	return port.Send(s.params(m.From, m.Clock, s.Snapshot()))
}

// ssp accumulates worker updates (Petuum-style: the worker sends its
// locally applied delta, the PS is an adder) and, on shard 0, runs the
// clock service: an update advances its sender's clock and is acked with
// the minimum clock; a pull parks until min ≥ clock − s.
func (s *Shard) ssp(port PSPort, m *simnet.Msg) error {
	switch m.Kind {
	case KindGrad, KindSparseGrad:
		if err := s.check(m); err != nil {
			return err
		}
		port.Charge(m.Bytes)
		if m.Kind == KindSparseGrad {
			s.global.ApplySparse(m.SparseIdx, m.Vec, -1, 1)
		} else {
			s.global.AddDelta(s.ranges, m.Vec)
		}
		if s.seg != 0 {
			return nil
		}
		s.clocks[m.From] = m.Clock
		if err := port.Send(simnet.Msg{From: s.node, To: m.From, Kind: KindAck,
			Clock: s.minClock(), Bytes: 16}); err != nil {
			return err
		}
		_, err := s.release(port)
		return err
	case KindPull:
		if s.seg == 0 && s.minClock() < m.Clock-s.cfg.Staleness {
			s.parked = append(s.parked, pull{worker: m.From, clock: m.Clock})
			return nil
		}
		return port.Send(s.params(m.From, m.Clock, s.Snapshot()))
	}
	return s.unexpected(m)
}

// minClock is the slowest counted worker's clock. Workers the membership
// marks dead are skipped, so a crash does not park every fast worker for
// the rest of the run.
func (s *Shard) minClock() int {
	m := -1
	for w, c := range s.clocks {
		if s.dead != nil && s.dead(w) {
			continue
		}
		if m < 0 || c < m {
			m = c
		}
	}
	if m < 0 {
		m = s.clocks[0]
	}
	return m
}

// release answers every parked pull whose staleness bound now holds and
// reports whether it answered any.
func (s *Shard) release(port PSPort) (bool, error) {
	mc := s.minClock()
	hit := false
	keep := s.parked[:0]
	for _, pk := range s.parked {
		if mc < pk.clock-s.cfg.Staleness {
			keep = append(keep, pk)
			continue
		}
		if err := port.Send(s.params(pk.worker, pk.clock, s.Snapshot())); err != nil {
			return hit, err
		}
		hit = true
	}
	s.parked = keep
	return hit, nil
}

// easgd performs the symmetric elastic move on a worker's pushed
// parameters and returns the worker's updated local parameters.
func (s *Shard) easgd(port PSPort, m *simnet.Msg) error {
	if m.Kind != KindEASGDPush {
		return s.unexpected(m)
	}
	if err := s.check(m); err != nil {
		return err
	}
	port.Charge(m.Bytes)
	// ElasticUpdate mutates the pushed vector in place over this shard's
	// ranges; the reply carries it back.
	s.global.ElasticUpdate(s.ranges, m.Vec, float32(s.cfg.MovingRate))
	return port.Send(simnet.Msg{From: s.node, To: m.From, Kind: KindEASGDReply, Clock: m.Clock,
		Seg: s.seg, Bytes: s.replyBytes(), Vec: m.Vec})
}

// shardPort is the simulator's PSPort: the shard's simnet inbox, blocked
// on by its DES process, with aggregation charged in virtual time.
type shardPort struct {
	p     *des.Proc
	net   *simnet.Net
	inbox *des.Queue[simnet.Msg]
}

func (sp *shardPort) Send(m simnet.Msg) error { sp.net.Send(m); return nil }

func (sp *shardPort) Recv() (simnet.Msg, error) { return sp.inbox.Recv(sp.p), nil }

func (sp *shardPort) RecvTimeout(sec float64) (simnet.Msg, bool, error) {
	m, ok := sp.inbox.RecvTimeout(sp.p, sec)
	return m, ok, nil
}

func (sp *shardPort) Charge(bytes int64) { psAggSleep(sp.p, bytes) }

// shard builds PS shard s of the experiment and the port its process p
// serves it through.
func (x *exp) shard(s int, p *des.Proc) (*Shard, PSPort) {
	sh := &Shard{cfg: x.cfg, seg: s, node: x.psNode[s], global: x.global, ranges: x.assign[s],
		vecLen: x.vecLen, replyBytes: func() int64 { return x.replyBytes(s) }, faults: &x.col.Faults}
	if x.inj != nil && x.cfg.Elastic {
		sh.timeout = x.cfg.BarrierTimeoutSec
		sh.dead = func(w int) bool { return x.inj.DeadAt(w, p.Now()) }
	}
	return newShard(sh), &shardPort{p: p, net: x.net, inbox: x.psInbox(s)}
}

// spawnShards starts one process per PS shard serving an asynchronous
// algorithm. The loops run forever; Engine.Kill reaps them at the end.
func (x *exp) spawnShards() {
	for s := range x.assign {
		s := s
		x.eng.Spawn(fmt.Sprintf("%s-ps%d", x.cfg.Algo, s), func(p *des.Proc) {
			sh, port := x.shard(s, p)
			if err := sh.Serve(port); err != nil {
				panic(err)
			}
		})
	}
}
