package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// runASP implements Asynchronous Parallel training (Section III-B): each PS
// shard applies every arriving gradient to the global parameters
// immediately and sends the updated parameters straight back to that worker
// — no worker ever waits for another, but every worker round-trips the full
// model through the PS each iteration, which makes the PS the bottleneck on
// a slow network (the paper's headline ASP finding).
//
// Mirroring the paper's implementation, each shard communicates with
// workers through per-worker logic (our shard process serves messages in
// arrival order; the simulated NIC, not goroutine structure, is the shared
// resource).
func runASP(x *exp) {
	cfg := x.cfg

	x.spawnShards()

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("asp-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, j := x.computePhase(p, w, cfg.WaitFreeBP)
				x.sendGrads(p, w, it, gf.get(), true, j, cfg.WaitFreeBP)

				t0 := p.Now()
				var wire des.Time
				var fresh []float32
				if x.reps[w].mathOn() {
					fresh = x.reps[w].params()
				}
				for recv := 0; recv < len(x.assign); recv++ {
					var m simnet.Msg
					if x.inj != nil {
						// A dropped gradient or reply must not wedge an
						// asynchronous worker: give up after the timeout
						// and train on with the stale shard params.
						var okr bool
						if m, okr = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !okr {
							x.col.Faults.Timeouts++
							break
						}
					} else {
						m = inbox.Recv(p)
					}
					if m.Kind != KindParams {
						panic(fmt.Sprintf("asp worker: unexpected kind %d", m.Kind))
					}
					wire += m.WireSec
					if m.Vec != nil {
						for _, r := range x.assign[m.Seg] {
							copy(fresh[r.Off:r.Off+r.Len], m.Vec[r.Off:r.Off+r.Len])
						}
					}
				}
				bd.Add(metrics.Network, wire)
				bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
				x.reps[w].setParams(fresh)
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
