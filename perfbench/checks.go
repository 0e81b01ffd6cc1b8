package main

import (
	"fmt"
	"math"
)

// signature is the part of a run's output that must repeat exactly across
// runs of one seed: simulated time and traffic counts, live frame counts
// and the final loss. BSP and AR-SGD are deterministic on both runtimes.
type signature struct {
	virtualSec float64
	msgs       int64
	bytes      int64
	frames     int64
	wireBytes  int64
	finalLoss  float64
}

func (r *runRecord) signature() []signature {
	var out []signature
	for _, sr := range r.specs {
		out = append(out, signature{
			virtualSec: sr.virtualSec, msgs: sr.netMsgs, bytes: sr.netBytes,
			frames: sr.frames, wireBytes: sr.wireBytes, finalLoss: sr.finalLoss,
		})
	}
	return out
}

// check returns every way run r fails the workload's output checks. first
// is the first run of the same seed (nil for the first run itself), whose
// signature r must repeat.
func (wl *workload) check(seed uint64, r, first *runRecord) []string {
	if r.err != nil {
		return []string{r.err.Error()}
	}
	var bad []string
	specs := wl.specs(seed)
	for i, sr := range r.specs {
		name := specs[i].Name
		for rank, n := range sr.liveIters {
			if n != sr.iters {
				bad = append(bad, fmt.Sprintf("%s: rank %d completed %d of %d iterations", name, rank, n, sr.iters))
			}
		}
		if wl.accFloor > 0 {
			if sr.finalAcc < wl.accFloor {
				bad = append(bad, fmt.Sprintf("%s: test accuracy %.4f below floor %.2f", name, sr.finalAcc, wl.accFloor))
			}
			if math.IsNaN(sr.finalLoss) || math.IsInf(sr.finalLoss, 0) {
				bad = append(bad, fmt.Sprintf("%s: final loss %v is not finite", name, sr.finalLoss))
			}
		} else {
			if sr.stalled != 0 {
				bad = append(bad, fmt.Sprintf("%s: %d workers stalled", name, sr.stalled))
			}
			if !(sr.virtualSec > 0) || math.IsInf(sr.virtualSec, 0) {
				bad = append(bad, fmt.Sprintf("%s: virtual makespan %v", name, sr.virtualSec))
			}
		}
		if ref, ok := references[wl.name][seed]; ok && i < len(ref) {
			if got := sr.reference(); got != ref[i] {
				bad = append(bad, fmt.Sprintf("%s: result %v differs from the recorded reference %v for seed %d", name, got, ref[i], seed))
			}
		}
	}
	if first != nil && first.err == nil {
		a, b := first.signature(), r.signature()
		for i := range b {
			if i < len(a) && a[i] != b[i] {
				bad = append(bad, fmt.Sprintf("%s: counts %+v differ from the first run's %+v", specs[i].Name, b[i], a[i]))
			}
		}
	}
	return bad
}

// reference is the value recorded per seed in references: the final
// training loss of a real-math run, or the simulated makespan of a
// cost-only one.
func (sr *specRun) reference() float64 {
	if sr.real {
		return sr.finalLoss
	}
	return sr.virtualSec
}
