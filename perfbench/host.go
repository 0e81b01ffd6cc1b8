package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine a result was measured on, so a number
// is never read without the host that produced it.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "n/a",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		h.CPUModel, h.AVX2 = parseCPUInfo(f)
		f.Close()
	}
	return h
}

// parseCPUInfo reads the first processor's model name and whether its flag
// list includes avx2.
func parseCPUInfo(r io.Reader) (model string, avx2 bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	gotFlags := false
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if !gotFlags {
				avx2 = hasField(val, "avx2")
				gotFlags = true
			}
		}
	}
	return model, avx2
}

func hasField(s, want string) bool {
	for _, f := range strings.Fields(s) {
		if f == want {
			return true
		}
	}
	return false
}

// warnSmallHost writes a warning to w when the host has fewer CPUs than the
// workload's fixed pool or world size: the workload still runs, but its
// goroutines then share cores and its numbers do not compare with a host
// that has enough.
func warnSmallHost(w io.Writer, h hostInfo, wl *workload) {
	need := max(wl.pool, wl.world)
	if h.NumCPU < need {
		fmt.Fprintf(w, "perfbench: warning: %d CPUs < %s's pool/world size %d; numbers are not comparable with larger hosts\n",
			h.NumCPU, wl.name, need)
	}
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// readCPUTicks returns the aggregate CPU line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal, ...), or nil if unreadable.
func readCPUTicks() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var ticks []uint64
	for _, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealPct is the steal share of all CPU ticks between two readings. It
// sums user through steal; the guest fields that follow are already part
// of user.
func stealPct(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total uint64
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(b[7]-a[7]) / float64(total)
}

// processCPUSec is the CPU time, user and system, every thread of this
// process has used so far. Time the hypervisor stole from a vCPU is not
// charged to the threads that were waiting to run on it.
func processCPUSec() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
