// Command perfbench is the repository benchmark: it runs one workload
// for a fixed wall-clock window, checks every output against
// expected.json, and prints every metric by name with its unit.
//
//	perfbench --workload spec-batch --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	spec-batch  the ten SPEC CPU 2006 kernels x {guard, segue}, each cell
//	            compiled, instantiated and invoked once (Figure 3)
//	serve-hot   2 closed-loop connections to one in-process server,
//	            skewed kernel mix, colorguard only (keep-warm hits)
//	serve-wide  2 closed-loop connections through an in-process router to
//	            two servers, 48 uniform affinity keys (cold starts)
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics (timed from this package around calls into each
// layer) and writes a Chrome trace under .bench_build/traces/. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// perfbench --gen <file> regenerates the expected-output file from the
// independent references (ir.Interp and the slow execution tier).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cpu"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; the unit comes from the
// catalogue below, so a name can never be reported under two units.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: metric not in catalogue: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's verdict for one run.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run is what a workload hands back: the checked counts plus metrics.
// problems lists every failed check (wrong output, broken conservation).
type run struct {
	attempted, failed int64
	problems          []string
	m                 metrics
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// problem records a failed whole-run check (conservation) that is not
// an operation of its own.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
}

var workloadFns = map[string]func(options) (*run, error){
	"spec-batch": runSpec,
	"serve-hot":  func(o options) (*run, error) { return runServe(o, hotShape) },
	"serve-wide": func(o options) (*run, error) { return runServe(o, wideShape) },
}

func main() {
	workload := flag.String("workload", "", "spec-batch, serve-hot or serve-wide")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = per-layer metrics and a Chrome trace")
	gen := flag.String("gen", "", "regenerate the expected-output file at this path and exit")
	flag.Parse()

	if *gen != "" {
		if err := generateExpected(*gen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloadFns[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload spec-batch|serve-hot|serve-wide --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := options{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	r, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(o, r)
}

// report prints the host fingerprint, a readable metric table, any
// failed checks, and finally the one-line JSON verdict.
func report(o options, r *run) {
	fp, _ := json.Marshal(fingerprint(o))
	fmt.Printf("fingerprint %s\n", fp)
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s\n", n, r.m[n].Value, r.m[n].Unit)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-36s %16.6g (%d of %d)\n", "failed_share", share, r.failed, r.attempted)
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "check: ... %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.m,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// fingerprint identifies the host and configuration a result came
// from, so later comparisons compare like with like.
func fingerprint(o options) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"tier":       cpu.DefaultTier().String(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.window.Seconds(),
		"trace":      o.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident high-water mark (VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's CPU time so far, user plus system, summed
// over its threads. With paravirtual steal accounting (as on KVM guests)
// it excludes time the hypervisor ran other tenants.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// memDelta is the Go runtime's allocation and GC work over a window.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *memDelta) report(m metrics) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.set("runtime.alloc_mb", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20))
	m.set("runtime.gc_cycles", float64(after.NumGC-d.before.NumGC))
}
