package core

import (
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"disttrain/internal/fault"
	"disttrain/internal/opt"
	"disttrain/internal/ps"
	"disttrain/internal/simnet"
)

// TestMessageKindWireValues pins the message kinds: live frames carry the
// same numbers on the wire, so renumbering one breaks mixed-version runs
// and every packet capture read against the simulator's taxonomy.
func TestMessageKindWireValues(t *testing.T) {
	want := map[string]int{
		"Grad": 1, "SparseGrad": 2, "Params": 3, "Pull": 4, "Ack": 5,
		"EASGDPush": 6, "EASGDReply": 7, "AllReduce": 8, "Gossip": 9,
		"ExchangeReq": 10, "ExchangeReply": 11, "LocalGather": 12,
		"LocalBcast": 13, "Resume": 14,
	}
	got := map[string]int{
		"Grad": KindGrad, "SparseGrad": KindSparseGrad, "Params": KindParams,
		"Pull": KindPull, "Ack": KindAck, "EASGDPush": KindEASGDPush,
		"EASGDReply": KindEASGDReply, "AllReduce": KindAllReduce,
		"Gossip": KindGossip, "ExchangeReq": KindExchangeReq,
		"ExchangeReply": KindExchangeReply, "LocalGather": KindLocalGather,
		"LocalBcast": KindLocalBcast, "Resume": KindResume,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("Kind%s = %d, want %d", name, got[name], v)
		}
	}
}

// fakePort feeds a shard a fixed message sequence and records its replies.
// Recv reports io.EOF, and RecvTimeout an expired wait, once in runs dry.
type fakePort struct {
	in      []simnet.Msg
	out     []simnet.Msg
	charged int64
}

func (f *fakePort) Send(m simnet.Msg) error { f.out = append(f.out, m); return nil }

func (f *fakePort) Recv() (simnet.Msg, error) {
	if len(f.in) == 0 {
		return simnet.Msg{}, io.EOF
	}
	m := f.in[0]
	f.in = f.in[1:]
	return m, nil
}

func (f *fakePort) RecvTimeout(float64) (simnet.Msg, bool, error) {
	if len(f.in) == 0 {
		return simnet.Msg{}, false, nil
	}
	m, err := f.Recv()
	return m, true, err
}

func (f *fakePort) Charge(bytes int64) { f.charged += bytes }

// gradMsg is a one-element gradient message from worker w for round clock.
func gradMsg(w, clock int, v float32) simnet.Msg {
	return simnet.Msg{From: w, Kind: KindGrad, Clock: clock, Bytes: 4, Vec: []float32{v}}
}

// scalarShard is a live-style shard over a single zero parameter with
// plain SGD (no momentum, no decay), so every step is p -= lr·g.
func scalarShard(algo Algo, workers int) *Shard {
	cfg := &Config{Algo: algo, Workers: workers, LR: opt.Schedule{Base: 0.1}}
	return NewShard(cfg, workers, ps.NewGlobal([]float32{0}, 0, 0))
}

// TestShardASPStalenessDamping feeds the ASP handler a fixed arrival order
// and checks each step's damped learning rate: a gradient is scaled by
// 1/(1+staleness), staleness being the global updates since its sender
// last pulled.
func TestShardASPStalenessDamping(t *testing.T) {
	for _, damp := range []bool{false, true} {
		sh := scalarShard(ASP, 2)
		sh.cfg.StalenessDamping = damp
		port := &fakePort{in: []simnet.Msg{gradMsg(0, 1, 1), gradMsg(1, 1, 1), gradMsg(1, 2, 1), gradMsg(0, 2, 1)}}
		if err := sh.Serve(port); err != nil {
			t.Fatal(err)
		}
		lr := float32(0.1)
		// Staleness per arrival: 0, 1 (w1 missed w0's update), 0, 2 (w0
		// missed both of w1's).
		stale := []int{0, 1, 0, 2}
		to := []int{0, 1, 1, 0}
		clock := []int{1, 1, 2, 2}
		if len(port.out) != len(stale) {
			t.Fatalf("damp=%v: %d replies, want %d", damp, len(port.out), len(stale))
		}
		var p float32
		for i, s := range stale {
			step := lr
			if damp {
				step = lr / float32(1+s)
			}
			p -= step
			r := port.out[i]
			if r.Kind != KindParams || r.To != to[i] || r.Clock != clock[i] || r.Vec[0] != p {
				t.Fatalf("damp=%v reply %d: %+v, want clock-%d params %v to %d", damp, i, r, clock[i], p, to[i])
			}
		}
		if port.charged != 16 {
			t.Fatalf("damp=%v: charged %d bytes, want 16", damp, port.charged)
		}
	}
}

// TestShardBSPRoundMatchesByClock drives BSP rounds through a fake port:
// a gradient for the next round is held for it, not summed now, and a
// gradient for a round closed on a timeout is dropped and counted.
func TestShardBSPRoundMatchesByClock(t *testing.T) {
	sh := scalarShard(BSP, 2)
	// Round 1 sees worker 1's round-2 gradient first.
	port := &fakePort{in: []simnet.Msg{gradMsg(1, 2, 100), gradMsg(0, 1, 1), gradMsg(1, 1, 3)}}
	if err := sh.BSPRound(port, 1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	lr := float32(0.1)
	p1 := 0 - lr*(4*0.5)
	if got := sh.global.Params[0]; got != p1 {
		t.Fatalf("round 1 params %v, want %v (the round-2 gradient must wait)", got, p1)
	}
	if len(port.out) != 2 || port.out[0].To != 0 || port.out[1].To != 1 || port.out[0].Clock != 1 {
		t.Fatalf("round 1 replies %+v, want clock-1 params to 0 then 1 (arrival order)", port.out)
	}
	port.in = []simnet.Msg{gradMsg(0, 2, 2)}
	if err := sh.BSPRound(port, 2, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	p2 := p1 - lr*(102*0.5)
	if got := sh.global.Params[0]; got != p2 {
		t.Fatalf("round 2 params %v, want %v", got, p2)
	}

	// With a timeout, round 3 closes with worker 0 alone; worker 1's
	// round-3 gradient then arrives during round 4.
	sh.timeout = 1
	port.out = nil
	port.in = []simnet.Msg{gradMsg(0, 3, 1)}
	if err := sh.BSPRound(port, 3, 2, 1); err != nil {
		t.Fatal(err)
	}
	port.in = []simnet.Msg{gradMsg(1, 3, 1000), gradMsg(0, 4, 1), gradMsg(1, 4, 1)}
	if err := sh.BSPRound(port, 4, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	p4 := (p2 - lr*1) - lr*(2*0.5)
	if got := sh.global.Params[0]; got != p4 {
		t.Fatalf("round 4 params %v, want %v (the late gradient must be dropped)", got, p4)
	}
	if sh.faults.Timeouts != 1 || sh.faults.LateGrads != 1 {
		t.Fatalf("faults %+v, want 1 timeout and 1 late gradient", *sh.faults)
	}
	// The late sender gets the current parameters back under its clock.
	late := port.out[1]
	if late.To != 1 || late.Clock != 3 || late.Kind != KindParams {
		t.Fatalf("late reply %+v, want clock-3 params to worker 1", late)
	}
}

// TestShardRejectsMalformed: a payload of the wrong length, a duplicate
// sender in one round and an unexpected kind are errors, not panics.
func TestShardRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		algo Algo
		in   []simnet.Msg
		want string
	}{
		{"bsp long vec", BSP, []simnet.Msg{{From: 0, Kind: KindGrad, Clock: 1, Vec: []float32{1, 2}}}, "elements"},
		{"bsp duplicate", BSP, []simnet.Msg{gradMsg(0, 1, 1), gradMsg(0, 1, 1)}, "two gradients"},
		{"bsp pull", BSP, []simnet.Msg{{From: 0, Kind: KindPull, Clock: 1}}, "unexpected kind"},
		{"asp nil vec", ASP, []simnet.Msg{{From: 0, Kind: KindGrad, Clock: 1}}, "elements"},
		{"ssp short delta", SSP, []simnet.Msg{{From: 1, Kind: KindGrad, Clock: 1, Vec: []float32{}}}, "elements"},
		{"easgd grad", EASGD, []simnet.Msg{gradMsg(0, 1, 1)}, "unexpected kind"},
		{"asp foreign sender", ASP, []simnet.Msg{gradMsg(7, 1, 1)}, "outside 2 workers"},
		{"sparse index", ASP, []simnet.Msg{{From: 0, Kind: KindSparseGrad, Clock: 1,
			SparseIdx: []int32{5}, Vec: []float32{1}}}, "outside"},
	}
	for _, tc := range cases {
		sh := scalarShard(tc.algo, 2)
		port := &fakePort{in: tc.in}
		var err error
		if tc.algo == BSP {
			err = sh.BSPRound(port, 1, 2, 0.5)
		} else {
			err = sh.Serve(port)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestBSPHoldsEarlyGradient is the simulator-side round-matching check.
// Under elastic membership, a worker back from a very short outage sends
// its next round's gradient while the shard still aggregates the current
// round. Held for its own round, it leaves every round's sum a function
// of membership alone, so slowing the restarted worker down — which
// removes the race — must not change a single parameter bit.
func TestBSPHoldsEarlyGradient(t *testing.T) {
	run := func(slow bool) *Result {
		cfg := realConfig(BSP, 4, 20, 1)
		cfg.Elastic = true
		cfg.CaptureParams = true
		cfg.Faults = &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Crash, AtIter: 5, Worker: 3, Restart: 0.01}}}
		if slow {
			cfg.Faults.Events = append(cfg.Faults.Events,
				fault.Event{Kind: fault.Slow, At: 0, Worker: 3, Factor: 3})
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Faults.Crashes != 1 || res.StalledWorkers != 0 {
			t.Fatalf("slow=%v: faults %+v, %d stalled", slow, res.Metrics.Faults, res.StalledWorkers)
		}
		return res
	}
	race, calm := run(false), run(true)
	for w := range calm.WorkerParams {
		for i, v := range calm.WorkerParams[w] {
			if math.Float32bits(v) != math.Float32bits(race.WorkerParams[w][i]) {
				t.Fatalf("worker %d param %d: %v with the race, %v without", w, i, race.WorkerParams[w][i], v)
			}
		}
	}
	if race.ReplicaSpreadL2 != 0 {
		t.Fatalf("BSP replicas diverged: spread %v", race.ReplicaSpreadL2)
	}
}
