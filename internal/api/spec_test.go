package api

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestNormalizeDefaults verifies the defaulting contract: a minimal spec and
// its fully spelled-out equivalent derive the same configuration.
func TestNormalizeDefaults(t *testing.T) {
	s := ExperimentSpec{Algo: "bsp"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Version != SpecVersion || s.Workers != 8 || s.Model != "resnet50" ||
		s.Iters != 30 || s.Transport != TransportSim {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.Staleness == nil || *s.Staleness != 3 {
		t.Fatalf("staleness default: %v", s.Staleness)
	}
	// Idempotent: normalizing again must not change anything.
	before := s
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if *s.Staleness != *before.Staleness {
		t.Fatal("Normalize is not idempotent on Staleness")
	}
}

// TestNormalizeRejections covers spec-level syntax errors: missing algo,
// future version, unknown transport.
func TestNormalizeRejections(t *testing.T) {
	for name, s := range map[string]ExperimentSpec{
		"missing algo":      {},
		"future version":    {Version: "v99", Algo: "bsp"},
		"unknown transport": {Algo: "bsp", Transport: "carrier-pigeon"},
	} {
		s := s
		if err := s.Normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidatedRejectsBadAlgo verifies Validated runs the transport's full
// validation, not just spec syntax.
func TestValidatedRejectsBadAlgo(t *testing.T) {
	s := ExperimentSpec{Algo: "not-an-algo", Workers: 2}
	if _, err := s.Validated(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Live transports require real gradient math.
	s = ExperimentSpec{Algo: "bsp", Workers: 2, Transport: TransportChan}
	if _, err := s.Validated(); err == nil {
		t.Fatal("live transport without Real accepted")
	}
}

// TestSpecCollectiveAndOverlay verifies the additive topology fields pass
// through Config() and survive a JSON round trip without a version bump.
func TestSpecCollectiveAndOverlay(t *testing.T) {
	s := ExperimentSpec{Algo: "arsgd", Workers: 24, Collective: "hierarchical"}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Collective != "hierarchical" {
		t.Fatalf("collective not carried: %q", cfg.Collective)
	}
	if s.Version != SpecVersion {
		t.Fatalf("additive fields bumped the version: %q", s.Version)
	}

	s = ExperimentSpec{Algo: "gosgd", Workers: 8, Overlay: "kregular", OverlayDegree: 2}
	cfg, err = s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Overlay != "kregular" || cfg.OverlayDegree != 2 {
		t.Fatalf("overlay not carried: %q/%d", cfg.Overlay, cfg.OverlayDegree)
	}

	// Live transports reject the simulator-only topology features.
	s = ExperimentSpec{Algo: "arsgd", Workers: 8, Collective: "butterfly",
		Transport: TransportChan, Real: &RealSpec{}}
	if _, err := s.Validated(); err == nil {
		t.Fatal("live transport accepted a simulator-only collective")
	}
	s = ExperimentSpec{Algo: "gosgd", Workers: 8, Overlay: "smallworld",
		Transport: TransportChan, Real: &RealSpec{}}
	if _, err := s.Validated(); err == nil {
		t.Fatal("live transport accepted a gossip overlay")
	}
}

// TestSpecTreeAllReduceAlias: spec v1's tree_allreduce still selects the
// tree collective — a stored spec runs byte-identically to one naming
// collective "tree" — and is still rejected next to another collective.
func TestSpecTreeAllReduceAlias(t *testing.T) {
	var stored ExperimentSpec
	if err := json.Unmarshal([]byte(`{"version":"v1","algo":"arsgd","workers":4,"iters":6,"tree_allreduce":true}`),
		&stored); err != nil {
		t.Fatal(err)
	}
	cfg, err := stored.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Collective != "tree" {
		t.Fatalf("tree_allreduce mapped to collective %q", cfg.Collective)
	}
	named := ExperimentSpec{Version: "v1", Algo: "arsgd", Workers: 4, Iters: 6, Collective: "tree"}
	var bufs [2]bytes.Buffer
	for i, s := range []ExperimentSpec{stored, named} {
		res, err := Run(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("tree_allreduce and collective \"tree\" runs differ")
	}

	both := named
	both.TreeAllReduce = true
	if _, err := both.Config(); err != nil {
		t.Fatalf("tree_allreduce with collective \"tree\" rejected: %v", err)
	}
	for _, other := range []string{"ring", "butterfly"} {
		s := ExperimentSpec{Algo: "arsgd", Workers: 8, TreeAllReduce: true, Collective: other}
		if _, err := s.Config(); err == nil {
			t.Fatalf("tree_allreduce accepted next to collective %q", other)
		}
	}
}

// TestRunDeterministic verifies the exported JSON of two identical sim runs
// is byte-identical — the contract every control-plane comparison rests on.
func TestRunDeterministic(t *testing.T) {
	spec := ExperimentSpec{Algo: "asp", Workers: 4, Iters: 10, Seed: 7}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		res, err := Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("repeated runs diverged:\n%s\n%s", bufs[0].Bytes(), bufs[1].Bytes())
	}
}
