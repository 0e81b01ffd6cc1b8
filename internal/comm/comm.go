// Package comm implements the collective operations the decentralized
// algorithms and local aggregation are built on, as blocking calls: ring
// AllReduce (reduce-scatter + all-gather, the MPI/MPICH algorithm the paper
// uses for AR-SGD), a binomial-tree AllReduce, intra-machine
// gather/broadcast for BSP's local aggregation, and the topology-aware
// AllReduces in topo.go.
//
// Each collective is written once against a Port — send one message,
// receive the next — and the port's backend supplies the clock. Collective
// runs on the simulator (simnet in virtual time); internal/live runs the
// ring and tree over TCP through Run with its own port. Sharing the code is
// what makes a live AR-SGD run bit-identical to the simulated one.
//
// Every collective works in two modes: with real payload vectors (accuracy
// experiments) and with nil payloads where only message sizes drive the
// simulation (cost-only scalability experiments).
//
// Malformed opts and protocol violations (an unexpected message in a
// strict, stash-less collective, a payload of the wrong length) surface as
// errors, not as panics deep inside the ring.
package comm

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/simnet"
	"disttrain/internal/tensor"
)

// Op selects the collective operation.
type Op int

// The supported collectives.
const (
	// OpRingAllReduce is an in-place sum-AllReduce: reduce-scatter followed
	// by all-gather around a ring.
	OpRingAllReduce Op = iota
	// OpTreeAllReduce is a binomial reduce-to-root plus broadcast.
	OpTreeAllReduce
	// OpGather sums every member's vector into the group leader's
	// (Nodes[0]); members return immediately after sending.
	OpGather
	// OpBroadcast ships the leader's vector to every member; members block
	// for it.
	OpBroadcast
	// OpHierarchicalAllReduce is the machine-aware AllReduce: intra-machine
	// gather to a per-machine leader, a ring over the leaders, then an
	// intra-machine broadcast. Requires Groups (see internal/topo).
	OpHierarchicalAllReduce
	// OpButterflyAllReduce is recursive halving/doubling over a hypercube,
	// with pre/post folding for non-power-of-two worlds.
	OpButterflyAllReduce
	// OpTorusAllReduce is the 2D ring-of-rings: a ring AllReduce along each
	// grid row, then along each column. Requires TorusRows × TorusCols ==
	// len(Nodes).
	OpTorusAllReduce
)

// OpByName maps an AllReduce name — core.Config.Collective, the
// -collective flag, the spec's collective field — to its Op. The empty
// name is the ring.
func OpByName(name string) (Op, error) {
	switch name {
	case "", "ring":
		return OpRingAllReduce, nil
	case "tree":
		return OpTreeAllReduce, nil
	case "hierarchical":
		return OpHierarchicalAllReduce, nil
	case "butterfly":
		return OpButterflyAllReduce, nil
	case "torus":
		return OpTorusAllReduce, nil
	}
	return 0, fmt.Errorf("comm: unknown collective %q (ring, tree, hierarchical, butterfly, torus)", name)
}

// isAllReduce reports whether op reduces a full vector across all
// participants (and therefore needs payload/VirtualLen sizing).
func isAllReduce(op Op) bool {
	switch op {
	case OpRingAllReduce, OpTreeAllReduce, OpHierarchicalAllReduce,
		OpButterflyAllReduce, OpTorusAllReduce:
		return true
	}
	return false
}

// CollectiveOpts parameterizes one collective call. Every participant must
// invoke Collective with the same Op, Nodes, Kind and Clock; Self is the
// caller's index into Nodes.
type CollectiveOpts struct {
	Op Op
	// Net is the simulated network Collective runs on; Run ignores it.
	Net *simnet.Net
	// Nodes lists the participants' node IDs; Self indexes the caller.
	Nodes []int
	Self  int
	// Vec is the payload (mutated in place by the reducing ops); nil in
	// cost-only mode, where VirtualLen supplies the element count used for
	// chunk sizing.
	Vec        []float32
	VirtualLen int
	// Bytes is the wire size of the full vector.
	Bytes int64
	// Kind tags the collective's messages.
	Kind int
	// Clock tags the round. With a Stash attached, receives are filtered on
	// (Kind, Clock) and messages from other rounds are buffered — required
	// when the participant set changes between rounds (fault injection) and
	// a fast peer's next-round traffic can overtake the current round.
	// Without a Stash, any mismatched message is a protocol error (the
	// strict discipline of fixed-membership collectives over in-order
	// links); the tree and the topology-aware ops, whose peers legitimately
	// reorder within a round, attach a call-local stash instead.
	Clock int
	Stash *[]simnet.Msg
	// Groups lists each machine's participant indices (indices into Nodes,
	// not node IDs), ascending within a group; the first index of each
	// group is its leader. Required by OpHierarchicalAllReduce; build it
	// with topo.New.
	Groups [][]int
	// TorusRows × TorusCols is the grid shape for OpTorusAllReduce
	// (row-major over Nodes); the product must equal len(Nodes). Build it
	// with topo.TorusShape.
	TorusRows, TorusCols int

	port Port // set by Run
}

// Port is one participant's connection to the fabric a collective runs
// on. Messages carry node IDs (from Nodes) in From/To and the round's tags
// in Kind, Clock and Seg; the collective does all matching itself. A
// backend may ship a message marked Own in compressed form, provided the
// receiver reconstructs exactly m.Vec.
type Port interface {
	// Send ships m to node m.To. It must not retain m.Vec after it
	// returns: the collective keeps working in the vector it points into.
	Send(m simnet.Msg) error
	// Recv returns the next message addressed to this participant, in
	// whatever order the backend delivers them.
	Recv() (simnet.Msg, error)
}

// simPort is the simulator backend: messages cross simnet in virtual time
// and the calling process blocks on its node's inbox.
type simPort struct {
	p     *des.Proc
	net   *simnet.Net
	inbox *des.Queue[simnet.Msg]
}

func (s *simPort) Send(m simnet.Msg) error {
	// Delivery happens at the message's arrival time, after the sender has
	// moved on, so the payload is copied now.
	if m.Vec != nil {
		m.Vec = append([]float32(nil), m.Vec...)
	}
	s.net.Send(m)
	return nil
}

func (s *simPort) Recv() (simnet.Msg, error) { return s.inbox.Recv(s.p), nil }

// Collective runs the configured operation on the simulated network
// o.Net, blocking the calling process until its role completes. It returns
// the caller's resulting vector (the received vector for OpBroadcast
// members, Vec otherwise) and the wire seconds accumulated by this
// participant's receives — the "network" share of the collective for
// time-breakdown metrics.
//
// Malformed opts are rejected up front; a protocol violation mid-collective
// (a message that matches neither the expected round nor a stash, or a
// payload of the wrong length) aborts with an error. On error the payload
// vector may be partially reduced.
func Collective(p *des.Proc, o CollectiveOpts) ([]float32, des.Time, error) {
	if o.Net == nil {
		return o.Vec, 0, fmt.Errorf("comm: %v needs a network", o.Op)
	}
	if err := o.validate(); err != nil {
		return o.Vec, 0, err
	}
	return run(&simPort{p: p, net: o.Net, inbox: o.Net.Node(o.Nodes[o.Self]).Inbox}, &o)
}

// Run is Collective over an arbitrary port, on whatever clock its backend
// keeps; o.Net is ignored. The topology-aware ops carry contributions in
// simnet.Part payloads, so they need a port that delivers Parts.
func Run(port Port, o CollectiveOpts) ([]float32, des.Time, error) {
	if err := o.validate(); err != nil {
		return o.Vec, 0, err
	}
	return run(port, &o)
}

func run(port Port, o *CollectiveOpts) ([]float32, des.Time, error) {
	o.port = port
	var wire des.Time
	var err error
	switch o.Op {
	case OpRingAllReduce:
		wire, err = ringAllReduce(o)
	case OpTreeAllReduce:
		wire, err = treeAllReduce(o)
	case OpGather:
		wire, err = localGather(o)
	case OpBroadcast:
		wire, err = localBroadcast(o)
	case OpHierarchicalAllReduce:
		wire, err = hierarchicalAllReduce(o)
	case OpButterflyAllReduce:
		wire, err = butterflyAllReduce(o)
	case OpTorusAllReduce:
		wire, err = torusAllReduce(o)
	default:
		err = fmt.Errorf("comm: unknown op %d", o.Op)
	}
	return o.Vec, wire, err
}

// validate rejects opts that would corrupt or deadlock the collective:
// empty or inconsistent membership, a caller outside the group, and
// payload/size mismatches. Catching these here turns a crash deep in the
// ring into an error at the call site.
func (o *CollectiveOpts) validate() error {
	if len(o.Nodes) == 0 {
		return fmt.Errorf("comm: %v with no participants", o.Op)
	}
	if o.Self < 0 || o.Self >= len(o.Nodes) {
		return fmt.Errorf("comm: self index %d outside group of %d", o.Self, len(o.Nodes))
	}
	if o.Bytes < 0 {
		return fmt.Errorf("comm: negative wire size %d", o.Bytes)
	}
	if isAllReduce(o.Op) {
		if o.Vec == nil && o.VirtualLen <= 0 {
			return fmt.Errorf("comm: %v in cost-only mode needs a positive VirtualLen", o.Op)
		}
		if o.Vec != nil && len(o.Vec) == 0 {
			return fmt.Errorf("comm: %v with an empty payload vector", o.Op)
		}
	}
	if o.Vec != nil && o.VirtualLen != 0 && o.VirtualLen != len(o.Vec) {
		return fmt.Errorf("comm: VirtualLen %d disagrees with payload length %d", o.VirtualLen, len(o.Vec))
	}
	switch o.Op {
	case OpHierarchicalAllReduce:
		if err := o.validateGroups(); err != nil {
			return err
		}
	case OpTorusAllReduce:
		if o.TorusRows < 2 || o.TorusCols < 2 {
			return fmt.Errorf("comm: %v needs a rectangular grid of at least 2×2, got %d×%d",
				o.Op, o.TorusRows, o.TorusCols)
		}
		if o.TorusRows*o.TorusCols != len(o.Nodes) {
			return fmt.Errorf("comm: %v grid %d×%d does not cover %d ranks",
				o.Op, o.TorusRows, o.TorusCols, len(o.Nodes))
		}
	}
	return nil
}

// validateGroups checks that Groups partitions 0..len(Nodes)-1.
func (o *CollectiveOpts) validateGroups() error {
	if len(o.Groups) == 0 {
		return fmt.Errorf("comm: %v needs a cluster layout (Groups); derive one with topo.New", o.Op)
	}
	seen := make([]bool, len(o.Nodes))
	total := 0
	for g, members := range o.Groups {
		if len(members) == 0 {
			return fmt.Errorf("comm: %v group %d is empty", o.Op, g)
		}
		for _, r := range members {
			if r < 0 || r >= len(o.Nodes) {
				return fmt.Errorf("comm: %v group %d member %d outside world of %d", o.Op, g, r, len(o.Nodes))
			}
			if seen[r] {
				return fmt.Errorf("comm: %v rank %d appears in two groups", o.Op, r)
			}
			seen[r] = true
			total++
		}
	}
	if total != len(o.Nodes) {
		return fmt.Errorf("comm: %v groups cover %d of %d ranks", o.Op, total, len(o.Nodes))
	}
	return nil
}

// String names the op for error messages.
func (op Op) String() string {
	switch op {
	case OpRingAllReduce:
		return "ring allreduce"
	case OpTreeAllReduce:
		return "tree allreduce"
	case OpGather:
		return "gather"
	case OpBroadcast:
		return "broadcast"
	case OpHierarchicalAllReduce:
		return "hierarchical allreduce"
	case OpButterflyAllReduce:
		return "butterfly allreduce"
	case OpTorusAllReduce:
		return "torus allreduce"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// send stamps m with the caller's node and the round's tags and hands it
// to the port.
func (o *CollectiveOpts) send(m simnet.Msg) error {
	m.From, m.Kind, m.Clock = o.Nodes[o.Self], o.Kind, o.Clock
	return o.port.Send(m)
}

// anyLen tells recvMatch not to check the payload length: the message
// carries contribution Parts, or nothing.
const anyLen = -1

// recvMatch returns the next message tagged (Kind, Clock, seg). With a
// stash attached, other messages are buffered for later calls; without
// one, a mismatch is a protocol violation and errors. In payload mode a
// message whose payload is not want elements long is an error too, not a
// panic in the reduction.
func recvMatch(o *CollectiveOpts, seg, want int) (simnet.Msg, error) {
	var m simnet.Msg
	found := false
	if o.Stash != nil {
		stash := *o.Stash
		for i := range stash {
			if stash[i].Kind == o.Kind && stash[i].Clock == o.Clock && stash[i].Seg == seg {
				m, found = stash[i], true
				*o.Stash = append(stash[:i], stash[i+1:]...)
				break
			}
		}
	}
	for !found {
		var err error
		if m, err = o.port.Recv(); err != nil {
			return simnet.Msg{}, err
		}
		found = m.Kind == o.Kind && m.Clock == o.Clock && m.Seg == seg
		if !found {
			if o.Stash == nil {
				return simnet.Msg{}, mismatch(o, &m, seg)
			}
			*o.Stash = append(*o.Stash, m)
		}
	}
	if want != anyLen && o.Vec != nil && len(m.Vec) != want {
		return m, wrongLen(o, &m, want)
	}
	return m, nil
}

// The error paths of recvMatch live apart so its frame stays small: every
// simulated participant is a goroutine blocked inside it.

func mismatch(o *CollectiveOpts, m *simnet.Msg, seg int) error {
	return fmt.Errorf("comm: %v got kind %d clock %d seg %d, want kind %d clock %d seg %d",
		o.Op, m.Kind, m.Clock, m.Seg, o.Kind, o.Clock, seg)
}

func wrongLen(o *CollectiveOpts, m *simnet.Msg, want int) error {
	return fmt.Errorf("comm: %v got %d elements from node %d (seg %d), want %d",
		o.Op, len(m.Vec), m.From, m.Seg, want)
}

// ringAllReduce tags reduce-scatter chunk c with Seg c and all-gather
// chunk c with Seg n+c, so every message a participant receives in one
// call has its own tag and each chunk is folded in ring order whatever
// order the backend delivers in.
func ringAllReduce(o *CollectiveOpts) (des.Time, error) {
	n := len(o.Nodes)
	if n == 1 {
		return 0, nil
	}
	virtualLen := o.VirtualLen
	vec := o.Vec
	if vec != nil {
		virtualLen = len(vec)
	}
	chunkLo := func(c int) int { return virtualLen * c / n }
	chunkHi := func(c int) int { return virtualLen * (c + 1) / n }
	right := o.Nodes[(o.Self+1)%n]
	var wire des.Time

	send := func(c, seg int, own bool) error {
		lo, hi := chunkLo(c), chunkHi(c)
		m := simnet.Msg{To: right, Seg: seg, Bytes: o.Bytes * int64(hi-lo) / int64(virtualLen),
			Own: own, Off: lo}
		if vec != nil {
			m.Vec = vec[lo:hi]
		}
		return o.send(m)
	}
	recv := func(c, seg int) ([]float32, error) {
		m, err := recvMatch(o, seg, chunkHi(c)-chunkLo(c))
		wire += m.WireSec
		return m.Vec, err
	}

	// Reduce-scatter: after n-1 steps, participant i holds the full sum of
	// chunk (i+1) mod n. Only the first step's chunk is the sender's own
	// un-summed contribution.
	for s := 0; s < n-1; s++ {
		c := ((o.Self-s)%n + n) % n
		if err := send(c, c, s == 0); err != nil {
			return wire, err
		}
		c = ((o.Self-s-1)%n + n) % n
		got, err := recv(c, c)
		if err != nil {
			return wire, err
		}
		if vec != nil {
			tensor.AxpyF32(1, got, vec[chunkLo(c):chunkHi(c)])
		}
	}
	// All-gather: circulate the reduced chunks.
	for s := 0; s < n-1; s++ {
		c := ((o.Self+1-s)%n + n) % n
		if err := send(c, n+c, false); err != nil {
			return wire, err
		}
		c = ((o.Self-s)%n + n) % n
		got, err := recv(c, n+c)
		if err != nil {
			return wire, err
		}
		if vec != nil {
			copy(vec[chunkLo(c):chunkHi(c)], got)
		}
	}
	return wire, nil
}

// treeAllReduce is a binomial reduce-to-root plus broadcast. Reduce round
// k carries Seg k (from 1), the broadcast Seg 0, and the call always has a
// stash: a parent folds its children in round order whatever order they
// arrive in.
func treeAllReduce(o *CollectiveOpts) (des.Time, error) {
	n := len(o.Nodes)
	if n == 1 {
		return 0, nil
	}
	if o.Stash == nil {
		o.Stash = &[]simnet.Msg{}
	}
	vec := o.Vec
	self := o.Self
	var wire des.Time

	send := func(to, seg int, own bool) error {
		return o.send(simnet.Msg{To: o.Nodes[to], Seg: seg, Bytes: o.Bytes, Vec: vec, Own: own})
	}
	recv := func(seg int, add bool) error {
		m, err := recvMatch(o, seg, len(vec))
		wire += m.WireSec
		if err != nil || vec == nil {
			return err
		}
		if add {
			tensor.AxpyF32(1, m.Vec, vec)
		} else {
			copy(vec, m.Vec)
		}
		return nil
	}

	// Reduce: in round k (distance d = 2^(k-1)), ranks with self%2d == d
	// send to self-d and drop out; ranks with self%2d == 0 receive (if a
	// partner exists). A rank that sends before receiving anything is a
	// leaf: its vector is still its own contribution.
	leaf := true
	for d, k := 1, 1; d < n; d, k = d*2, k+1 {
		if self%(2*d) == d {
			if err := send(self-d, k, leaf); err != nil {
				return wire, err
			}
			break
		}
		if self%(2*d) == 0 && self+d < n {
			if err := recv(k, true); err != nil {
				return wire, err
			}
			leaf = false
		}
	}
	// Broadcast back down the same tree, mirrored: largest distance first.
	top := 1
	for top < n {
		top *= 2
	}
	for d := top / 2; d >= 1; d /= 2 {
		switch {
		case self%(2*d) == 0 && self+d < n:
			if err := send(self+d, 0, false); err != nil {
				return wire, err
			}
		case self%(2*d) == d:
			if err := recv(0, false); err != nil {
				return wire, err
			}
		}
	}
	return wire, nil
}

func localGather(o *CollectiveOpts) (des.Time, error) {
	if len(o.Nodes) == 1 {
		return 0, nil
	}
	const leader = 0
	if o.Self != leader {
		return 0, o.send(simnet.Msg{To: o.Nodes[leader], Bytes: o.Bytes, Vec: o.Vec})
	}
	var wire des.Time
	for i := 0; i < len(o.Nodes)-1; i++ {
		m, err := recvMatch(o, 0, len(o.Vec))
		wire += m.WireSec
		if err != nil {
			return wire, err
		}
		if o.Vec != nil {
			tensor.AxpyF32(1, m.Vec, o.Vec)
		}
	}
	return wire, nil
}

func localBroadcast(o *CollectiveOpts) (des.Time, error) {
	if len(o.Nodes) == 1 {
		return 0, nil
	}
	const leader = 0
	if o.Self == leader {
		for i := 1; i < len(o.Nodes); i++ {
			if err := o.send(simnet.Msg{To: o.Nodes[i], Bytes: o.Bytes, Vec: o.Vec}); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	m, err := recvMatch(o, 0, anyLen)
	if err != nil {
		return 0, err
	}
	o.Vec = m.Vec
	return m.WireSec, nil
}
