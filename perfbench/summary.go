package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"

	"disttrain/internal/train"
)

// singleStepMs times one training step of the train package's step
// harness — sample, forward/backward, SGD update, with no distribution —
// on the MLP (quick) or MiniCNN substrate.
func singleStepMs(quick bool) float64 {
	h := train.NewStepHarness(train.Options{Quick: quick})
	for i := 0; i < 10; i++ {
		h.Step()
	}
	return timeCall(func() { h.Step() }) * 1e3
}

// benchFile is the part of BENCHMARK.json the summary reads: each
// end-to-end metric's bound.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSummary runs the workload n times, seeds seed..seed+n-1, each in a
// fresh process so peak memory and runtime state start clean, and prints
// every metric's median, quartiles, sample count and spread. A metric's
// spread is its interquartile range as a share of its median; the
// benchmark counts as steady when every end-to-end spread other than
// setup_s's is below a third of the metric's bound.
func runSummary(wl *workload, seed uint64, n int, seconds float64, trace bool, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	attempted, failed, incorrect := 0, 0, 0
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		tr := "0"
		if trace {
			tr = "1"
		}
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Fprintf(stdout, "seed %d (steal %.1f%%): %s", s, stealOf(out.Bytes()), lastLine(out.Bytes()))
		attempted += res.Attempted
		failed += res.Failed
		if !res.Correct {
			incorrect++
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	bounds := readBounds("BENCHMARK.json")
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\tn\tq1\tmedian\tq3\tspread\tbound\tverdict\t\n")
	for _, k := range sortedKeys(values) {
		xs := values[k]
		verdict, spread, q1, med, q3 := "", 0.0, xs[0], xs[0], xs[0]
		if len(xs) >= 2 {
			q1, med, q3 = quartiles(xs)
			spread = (q3 - q1) / med
		}
		bound, ok := bounds[k]
		bs := "-"
		if ok {
			bs = strconv.FormatFloat(bound, 'g', -1, 64)
			switch {
			case k == "setup_s":
				verdict = "median only"
			case spread < bound/3:
				verdict = "steady"
			case spread <= bound:
				verdict = "within bound"
			default:
				verdict = "UNSTEADY"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%s\t%s\t\n", k, units[k], len(xs), q1, med, q3, spread, bs, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d runs, %d operations attempted, %d failed, %d results not correct\n",
		wl.name, n, attempted, failed, incorrect)
	return nil
}

func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var f benchFile
	if json.Unmarshal(b, &f) != nil {
		return out
	}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	return append(out, '\n')
}

// stealOf reads the host steal share from a run's detail line.
func stealOf(out []byte) float64 {
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	var d detail
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &d) != nil {
		return 0
	}
	return d.StealPct
}

func lastResult(out []byte) (result, error) {
	var res result
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// printReferences runs each seed once and prints its reference values as
// entries of the references table.
func printReferences(ctx context.Context, wl *workload, seed uint64, n int, stdout io.Writer) error {
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "\t%q: {\n", wl.name)
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		rec := wl.run(ctx, s, nil)
		if rec.err != nil {
			return fmt.Errorf("seed %d: %w", s, rec.err)
		}
		if bad := wl.check(s, rec, nil); len(bad) > 0 {
			return fmt.Errorf("seed %d fails its checks: %v", s, bad)
		}
		fmt.Fprintf(w, "\t\t%d: {", s)
		for j, sr := range rec.specs {
			if j > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprint(w, strconv.FormatFloat(sr.reference(), 'g', -1, 64))
		}
		fmt.Fprintln(w, "},")
	}
	fmt.Fprintln(w, "\t},")
	return w.Flush()
}
