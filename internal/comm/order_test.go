package comm

import (
	"fmt"
	"strings"
	"testing"

	"disttrain/internal/des"
	"disttrain/internal/grad"
	"disttrain/internal/rng"
	"disttrain/internal/simnet"
)

// shuffleFabric is a test-only backend for Port. With a seed it delays
// every message by a random time and hands each receiver one of its
// pending messages chosen at random, so the collectives see delivery
// orders no in-order link would produce; seed 0 delivers in send order.
// The des engine serializes every step, so a seed replays exactly.
type shuffleFabric struct {
	eng     *des.Engine
	r       *rng.RNG // nil: in order
	pending [][]simnet.Msg
	bell    []*des.Queue[struct{}] // one token per pending message
	seen    []map[[3]int]bool      // per receiver: (Kind, Clock, Seg) received
	dup     error
	mutate  func(*simnet.Msg) // optional, applied to every sent message
}

func newShuffleFabric(n int, seed uint64) *shuffleFabric {
	f := &shuffleFabric{eng: des.NewEngine(), pending: make([][]simnet.Msg, n),
		bell: make([]*des.Queue[struct{}], n), seen: make([]map[[3]int]bool, n)}
	if seed != 0 {
		f.r = rng.New(seed)
	}
	for i := range f.bell {
		f.bell[i] = des.NewQueue[struct{}](f.eng)
		f.seen[i] = map[[3]int]bool{}
	}
	return f
}

type shufflePort struct {
	f    *shuffleFabric
	p    *des.Proc
	self int
}

func (pt shufflePort) Send(m simnet.Msg) error {
	f := pt.f
	if m.Vec != nil {
		m.Vec = append([]float32(nil), m.Vec...)
	}
	if f.mutate != nil {
		f.mutate(&m)
	}
	var delay des.Time
	if f.r != nil {
		delay = des.Time(f.r.Float64())
	}
	f.eng.Schedule(f.eng.Now()+delay, func() {
		f.pending[m.To] = append(f.pending[m.To], m)
		f.bell[m.To].Push(struct{}{})
	})
	return nil
}

func (pt shufflePort) Recv() (simnet.Msg, error) {
	f := pt.f
	if f.r != nil {
		pt.p.Sleep(des.Time(f.r.Float64())) // let more messages pile up
	}
	f.bell[pt.self].Recv(pt.p)
	q := f.pending[pt.self]
	i := 0
	if f.r != nil {
		i = f.r.Intn(len(q))
	}
	m := q[i]
	f.pending[pt.self] = append(q[:i], q[i+1:]...)
	key := [3]int{m.Kind, m.Clock, m.Seg}
	if f.seen[pt.self][key] && f.dup == nil {
		f.dup = fmt.Errorf("node %d received two messages tagged kind %d clock %d seg %d",
			pt.self, m.Kind, m.Clock, m.Seg)
	}
	f.seen[pt.self][key] = true
	return m, nil
}

// runShuffled runs op over the fabric with one process per rank on fresh
// copies of vecs and returns each rank's result and error. Each rank has a
// stash, as on the live path: a strict, stash-less collective presumes
// in-order links.
func runShuffled(f *shuffleFabric, op Op, vecs [][]float32) ([][]float32, []error) {
	n := len(vecs)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	out := make([][]float32, n)
	errs := make([]error, n)
	for i := range vecs {
		i := i
		out[i] = append([]float32(nil), vecs[i]...)
		errs[i] = fmt.Errorf("rank %d never finished", i)
		f.eng.Spawn(fmt.Sprintf("rank%d", i), func(p *des.Proc) {
			var stash []simnet.Msg
			_, _, errs[i] = Run(shufflePort{f: f, p: p, self: i}, CollectiveOpts{Op: op, Nodes: nodes,
				Self: i, Vec: out[i], Bytes: int64(4 * len(out[i])), Kind: testKind, Clock: 3, Stash: &stash})
		})
	}
	f.eng.Run(0)
	return out, errs
}

// TestCollectivesDeliveryOrder is the determinism contract under
// adversarial delivery: whatever order a backend delivers in, ring and
// tree leave every rank with exactly the in-order result, because each
// message a rank receives in one call has its own (Kind, Clock, Seg) tag
// and every chunk is folded in a fixed order. Inputs are non-integer, so a
// different association would show; the int8 case feeds the round-tripped
// vectors a quantized run reduces.
func TestCollectivesDeliveryOrder(t *testing.T) {
	const vlen, seeds = 37, 24 // 37: uneven ring chunks at every n
	for _, op := range []Op{OpRingAllReduce, OpTreeAllReduce} {
		for _, n := range []int{2, 3, 4, 5, 8} {
			for _, int8RoundTrip := range []bool{false, true} {
				vecs := randVecs(n, vlen, uint64(100*n+vlen))
				if int8RoundTrip {
					for _, v := range vecs {
						grad.QuantizeRoundTrip(v)
					}
				}
				name := fmt.Sprintf("%v n=%d int8=%v", op, n, int8RoundTrip)
				want, errs := runShuffled(newShuffleFabric(n, 0), op, vecs)
				for i, err := range errs {
					if err != nil {
						t.Fatalf("%s in order: rank %d: %v", name, i, err)
					}
				}
				if op == OpRingAllReduce {
					ref := make([]float32, vlen)
					ringReference(vecs, ref)
					if !bitEqual(want[0], ref) {
						t.Fatalf("%s: in-order ring differs from ringReference", name)
					}
				}
				for seed := uint64(1); seed <= seeds; seed++ {
					f := newShuffleFabric(n, seed)
					got, errs := runShuffled(f, op, vecs)
					if f.dup != nil {
						t.Fatalf("%s seed %d: %v", name, seed, f.dup)
					}
					for i := range got {
						if errs[i] != nil {
							t.Fatalf("%s seed %d rank %d: %v", name, seed, i, errs[i])
						}
						if !bitEqual(got[i], want[i]) {
							t.Fatalf("%s seed %d: rank %d differs from the in-order run", name, seed, i)
						}
					}
				}
			}
		}
	}
}

// TestCollectivesRejectShortPayload: a message whose payload is shorter
// than the chunk it fills is a protocol error from the collective, not a
// panic inside the reduction.
func TestCollectivesRejectShortPayload(t *testing.T) {
	for _, op := range []Op{OpRingAllReduce, OpTreeAllReduce} {
		f := newShuffleFabric(3, 0)
		f.mutate = func(m *simnet.Msg) {
			if len(m.Vec) > 0 {
				m.Vec = m.Vec[:len(m.Vec)-1]
			}
		}
		// A rank that stops on the error leaves its peers blocked; the
		// ones that return must return this error.
		_, errs := runShuffled(f, op, randVecs(3, 12, 5))
		rejected := false
		for _, err := range errs {
			rejected = rejected || err != nil && strings.Contains(err.Error(), "elements")
		}
		if !rejected {
			t.Fatalf("%v: short payloads not rejected: %v", op, errs)
		}
	}
}
