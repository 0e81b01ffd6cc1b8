package live

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/rng"
	"disttrain/internal/xport"
)

// reorderEndpoint delivers its inbound frames in a seeded random order.
// Each Recv first gathers what is already in flight — waiting up to window
// for each further frame, up to depth held — and then releases one held
// frame picked by the seeded stream. Frames a peer sent back to back, or
// several peers sent at once, thus reach the owner in an order the
// transport alone would rarely produce.
type reorderEndpoint struct {
	xport.Endpoint
	mu       sync.Mutex
	r        *rng.RNG
	held     []xport.Frame
	shuffled int // releases that overtook an earlier arrival
}

const (
	reorderWindow = 2 * time.Millisecond
	reorderDepth  = 8
)

func (e *reorderEndpoint) Recv(timeout time.Duration) (xport.Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.held) == 0 {
		f, err := e.Endpoint.Recv(timeout)
		if err != nil {
			return xport.Frame{}, err
		}
		e.held = append(e.held, f)
	}
	for len(e.held) < reorderDepth {
		f, err := e.Endpoint.Recv(reorderWindow)
		if errors.Is(err, xport.ErrTimeout) {
			break
		}
		if err != nil {
			return xport.Frame{}, err
		}
		e.held = append(e.held, f)
	}
	i := e.r.Intn(len(e.held))
	if i > 0 {
		e.shuffled++
	}
	f := e.held[i]
	e.held = append(e.held[:i], e.held[i+1:]...)
	return f, nil
}

// runChanReordered runs cfg over the channel transport with every rank's
// inbound frames reordered by a stream derived from seed, and returns the
// workers' final parameters and how many frames overtook another.
func runChanReordered(t *testing.T, cfg core.Config, seed uint64) ([][]float32, int) {
	t.Helper()
	if err := Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	n := meshSize(&cfg)
	cn := xport.NewChanNet(n)
	eps := make([]*reorderEndpoint, n)
	root := rng.New(seed)
	for i := range eps {
		eps[i] = &reorderEndpoint{Endpoint: cn.Endpoint(i), r: root.Split(uint64(i))}
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	srv := make(chan error, 1)
	go func() {
		_, err := servePS(&cfg, eps[cfg.Workers], nil)
		srv <- err
	}()
	params := make([][]float32, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newWorker(&cfg, i, eps[i], nil)
			errs[i] = w.run()
			params[i] = w.rep.params()
		}(i)
	}
	wg.Wait()
	if err := errors.Join(append(errs, <-srv)...); err != nil {
		t.Fatal(err)
	}
	shuffled := 0
	for _, ep := range eps {
		ep.mu.Lock()
		shuffled += ep.shuffled
		ep.mu.Unlock()
	}
	return params, shuffled
}

// TestLiveBSPReorderedBitIdenticalToSim runs live BSP, dense and int8, at
// two and four workers under seeded random delivery order on every rank:
// the PS must fold each round in ascending sender rank whatever order its
// gradients arrive in, so every seed stays bit-identical to the simulator.
func TestLiveBSPReorderedBitIdenticalToSim(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, int8 := range []bool{false, true} {
			shuffled := 0
			for seed := uint64(1); seed <= 10; seed++ {
				name := fmt.Sprintf("w%d/int8=%v/seed%d", workers, int8, seed)
				cfg := liveConfig(core.BSP, workers, 6, seed)
				cfg.Quantize8 = int8
				sim := simParams(t, cfg)
				live, n := runChanReordered(t, cfg, seed)
				shuffled += n
				t.Run(name, func(t *testing.T) { requireBitIdentical(t, sim, live) })
			}
			if shuffled == 0 {
				t.Fatalf("w%d int8=%v: no frame was ever delivered out of order", workers, int8)
			}
		}
	}
}
