// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload in its own process:
//
//	perfbench -workload census -seed 1 -seconds 20 -trace 0
//
// A run is a set of passes. Each pass opens a session on a fresh store
// directory with a fresh workload instance, runs the workload's
// iteration schedule through Session.Run, then four unchanged re-runs.
// Every Run's outputs are checked against a reuse-off reference. The
// last line of standard output is one JSON object: with -trace 0 it
// carries the end-to-end metrics, measured untraced; with -trace 1 it
// carries the per-layer metrics of traced passes, and the spans are
// written as a Chrome trace-event file under the work directory.
// NOTES.md describes the workloads, the metrics and the load hygiene.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"helix"
)

// minPasses is the least number of measured passes a run makes, even
// when -seconds has run out.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: census, genomics or wide-dag")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs and schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for stores and traces")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.procs = runtime.NumCPU()
	if _, err := newInstance(cfg.workload, cfg.seed, cfg.procs); err != nil || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, trace %d: %v\n", cfg.workload, trace, err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	abs, err := filepath.Abs(cfg.workdir)
	if err != nil {
		return err
	}
	cfg.workdir = abs
	stores := filepath.Join(cfg.workdir, "stores")
	if err := os.MkdirAll(stores, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(stores)

	ctx := context.Background()
	b := &bench{cfg: cfg}
	if err := b.reference(ctx); err != nil {
		return err
	}
	// The reference is not part of what the run measures: return its
	// memory to the OS and restart the process's peak-RSS count here.
	debug.FreeOSMemory()
	resetPeakRSS()

	hostStart := hostSpeed()
	// One warm-up pass, not timed.
	warm, err := b.pass(ctx, false)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var measured []*passRec
	for i := 0; len(measured) < minPasses || time.Now().Before(deadline); i++ {
		p, err := b.pass(ctx, cfg.trace && i%2 == 0)
		if err != nil {
			return err
		}
		measured = append(measured, p)
	}
	all := append([]*passRec{warm}, measured...)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(out, "perfbench %s seed=%d procs=%d passes=%d (+1 warm-up) trace=%v\n",
		cfg.workload, cfg.seed, cfg.procs, len(measured), cfg.trace)
	fmt.Fprintf(out, "host speed: 1M xorshift rounds take %.3f ms before the passes, %.3f ms after\n",
		hostStart, hostSpeed())
	for _, f := range b.failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
	flips := reportDecisions(out, all)
	if cfg.trace {
		var traced, untraced []*passRec
		for _, p := range measured {
			if p.traced {
				traced = append(traced, p)
			} else {
				untraced = append(untraced, p)
			}
		}
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		var traces []*passTrace
		for _, p := range traced {
			traces = append(traces, p.trace)
		}
		if err := saveChromeTrace(path, traces); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %s (Chrome trace-event JSON; opens in Perfetto)\n", path)
		res.Metrics = perLayer(out, traced, untraced, flips, cfg.procs)
	} else {
		res.Metrics = endToEnd(out, measured)
	}
	for name, v := range res.Metrics {
		// A metric with no samples (every Run of its kind failed) is a
		// NaN, which JSON cannot carry; the failures are already counted.
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(out, "%s: no samples\n", name)
			res.Metrics[name] = metric{0, v.Unit}
		}
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", enc)
	return nil
}

// gatedClasses are the iteration classes whose latency is an end-to-end
// metric. PPR edits and re-runs take a few milliseconds on census and
// genomics, most of it the state save's fsync, and their run-to-run
// spread on a shared 2-vCPU host (0.14–0.29 over ten seeds) is wider
// than any bound the benchmark may set; the traced run reports them as
// the per-layer iter.ppr_s and iter.rerun_s.
var gatedClasses = map[string]bool{classCold: true, classDPR: true, classLI: true}

// classLatency returns, per iteration class, the mean over the schedule
// steps of that class of each step's median latency over passes, and
// the pooled latencies of the class's Runs. The per-step median discards
// Runs that hit a host hiccup; the mean over steps keeps each step's
// weight, because one class can hold steps of different cost (on
// genomics an L/I edit to k-means takes ~2 ms, one to the embedding
// ~0.25 s) and a median pooled over Runs would sit between the modes.
func classLatency(passes []*passRec) (map[string]float64, map[string][]float64) {
	byStep := map[int][]float64{}
	stepClass := map[int]string{}
	pooled := map[string][]float64{}
	for _, p := range passes {
		for _, it := range p.iters {
			byStep[it.step] = append(byStep[it.step], it.latency)
			stepClass[it.step] = it.class
			pooled[it.class] = append(pooled[it.class], it.latency)
		}
	}
	sum, n := map[string]float64{}, map[string]int{}
	for step, xs := range byStep {
		sum[stepClass[step]] += median(xs)
		n[stepClass[step]]++
	}
	lat := map[string]float64{}
	for _, c := range classes {
		lat[c] = sum[c] / float64(n[c])
	}
	return lat, pooled
}

// endToEnd computes the untraced metrics and prints each one's median,
// the highest percentile with at least ten samples beyond it (over the
// pooled samples) and the sample count.
func endToEnd(out *bufio.Writer, passes []*passRec) map[string]metric {
	var setup, cumulative []float64
	for _, p := range passes {
		setup = append(setup, p.setupS...)
		cumulative = append(cumulative, p.cumulative)
	}
	m := map[string]metric{
		"setup_s":      {median(setup), "s"},
		"cumulative_s": {median(cumulative), "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
	row := func(name string, med float64, tailOf []float64, note string) {
		fmt.Fprintf(out, "%-14s %10.4f %18s %6d%s\n", name, med, tail(tailOf), len(tailOf), note)
	}
	fmt.Fprintf(out, "%-14s %10s %18s %6s\n", "metric", "median", "tail", "n")
	row("setup_s", median(setup), setup, "")
	row("cumulative_s", median(cumulative), cumulative, "")
	lat, pooled := classLatency(passes)
	for _, c := range classes {
		name := c + "_iter_s"
		note := ""
		if gatedClasses[c] {
			m[name] = metric{lat[c], "s"}
		} else {
			note = "  (reported, not gated)"
		}
		row(name, lat[c], pooled[c], note)
	}
	fmt.Fprintf(out, "%-14s %10.1f\n", "peak_rss_mb", m["peak_rss_mb"].Value)
	fmt.Fprintf(out, "cumulative_s per pass:")
	for _, p := range passes {
		fmt.Fprintf(out, " %.3f", p.cumulative)
	}
	fmt.Fprintln(out)
	return m
}

// reportDecisions prints the modal per-iteration decision sequence and
// returns how many passes departed from it.
func reportDecisions(out *bufio.Writer, passes []*passRec) int {
	seqKey := func(p *passRec) string {
		var sb strings.Builder
		for _, it := range p.iters {
			d := it.dec
			fmt.Fprintf(&sb, "%s:c%d/l%d/p%d/m%d/%.2fMB ", it.class, d.computed, d.loaded, d.pruned, d.materialized, float64(d.stored)/(1<<20))
		}
		return sb.String()
	}
	count := map[string]int{}
	modal := ""
	for _, p := range passes {
		k := seqKey(p)
		count[k]++
		if count[k] > count[modal] {
			modal = k
		}
	}
	flips := 0
	for _, p := range passes {
		if seqKey(p) != modal {
			flips++
		}
	}
	fmt.Fprintf(out, "decisions (class:computed/loaded/pruned/materialized/stored), modal in %d of %d passes:\n  %s\n", count[modal], len(passes), modal)
	for k, n := range count {
		if k != modal {
			fmt.Fprintf(out, "  flip x%d: %s\n", n, k)
		}
	}
	return flips
}

// hostSpeed is the median time, in ms, of a fixed single-threaded CPU
// loop. The report prints it before and after the passes, so that a run
// slowed by other tenants of a shared host shows as such.
func hostSpeed() float64 {
	xs := make([]float64, 0, 21)
	for i := 0; i < cap(xs); i++ {
		start := time.Now()
		hostSink += wdSpin(uint64(i)+1, 1_000_000)
		xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(xs)
}

// hostSink keeps hostSpeed's loop from being optimized away.
var hostSink uint64

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) count at the
// current RSS. Where /proc/self/clear_refs is not writable the peak
// includes the reference computation, and a note says so.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak RSS not reset (%v); it includes the reference run\n", err)
	}
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// passMedian is the median over passes of f.
func passMedian(passes []*passRec, f func(*passRec) float64) float64 {
	xs := make([]float64, 0, len(passes))
	for _, p := range passes {
		xs = append(xs, f(p))
	}
	return median(xs)
}

// iterSum returns a per-pass function summing f over the pass's Runs.
func iterSum(f func(*iterRec) float64) func(*passRec) float64 {
	return func(p *passRec) float64 {
		var s float64
		for i := range p.iters {
			s += f(&p.iters[i])
		}
		return s
	}
}

// perLayer computes the traced run's per-layer metrics, prints the
// per-layer span table and the tracing overhead, and returns the metrics.
func perLayer(out *bufio.Writer, traced, untraced []*passRec, flips, procs int) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	sum := func(f func(*iterRec) float64) float64 { return passMedian(traced, iterSum(f)) }
	count := func(pred func(*iterRec) bool) float64 {
		return sum(func(it *iterRec) float64 {
			if pred(it) {
				return 1
			}
			return 0
		})
	}
	outcomeTime := func(o helix.PlanCacheOutcome) float64 {
		var xs []float64
		for _, p := range traced {
			for _, it := range p.iters {
				if it.outcome == o {
					xs = append(xs, it.planTime)
				}
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}

	put("helix.compile_s", "s", sum(func(it *iterRec) float64 { return it.compileS }))
	put("helix.run_overhead_s", "s", sum(func(it *iterRec) float64 { return it.latency - it.wall }))
	put("helix.close_s", "s", passMedian(traced, func(p *passRec) float64 { return p.closeS }))
	put("core.signature_s", "s", sum(func(it *iterRec) float64 { return it.signatureS }))
	put("plan.plan_s", "s", sum(func(it *iterRec) float64 { return it.planTime }))
	put("plan.cold_s", "s", outcomeTime(helix.PlanCacheCold))
	put("plan.partial_s", "s", outcomeTime(helix.PlanCachePartial))
	put("plan.hit_s", "s", outcomeTime(helix.PlanCacheHit))
	put("plan.cold", "count", count(func(it *iterRec) bool { return it.outcome == helix.PlanCacheCold }))
	put("plan.partial", "count", count(func(it *iterRec) bool { return it.outcome == helix.PlanCachePartial }))
	put("plan.hit", "count", count(func(it *iterRec) bool { return it.outcome == helix.PlanCacheHit }))
	put("plan.solves", "count", sum(func(it *iterRec) float64 { return float64(it.solves) }))
	put("opt.compute_nodes", "count", sum(func(it *iterRec) float64 { return float64(it.dec.computed) }))
	put("opt.load_nodes", "count", sum(func(it *iterRec) float64 { return float64(it.dec.loaded) }))
	put("opt.prune_nodes", "count", sum(func(it *iterRec) float64 { return float64(it.dec.pruned) }))
	put("opt.mat_nodes", "count", sum(func(it *iterRec) float64 { return float64(it.dec.materialized) }))
	put("opt.plan_flips", "count", float64(flips))
	var projErr []float64
	for _, p := range traced {
		for _, it := range p.iters {
			if it.class != classCold && it.wall > 0 {
				projErr = append(projErr, math.Abs(it.projected-it.wall)/it.wall)
			}
		}
	}
	put("opt.projection_error", "ratio", median(projErr))
	put("exec.compute_s", "s", sum(func(it *iterRec) float64 { return it.computeS }))
	put("exec.load_s", "s", sum(func(it *iterRec) float64 { return it.loadS }))
	put("exec.queue_wait_s", "s", sum(func(it *iterRec) float64 { return it.queueWait }))
	put("exec.busy_ratio", "ratio", passMedian(traced, func(p *passRec) float64 {
		busy := iterSum(func(it *iterRec) float64 { return it.nodeBusyS })(p)
		avail := iterSum(func(it *iterRec) float64 { return (it.wall - it.planTime) * float64(procs) })(p)
		return busy / avail
	}))
	put("exec.replans", "count", sum(func(it *iterRec) float64 { return float64(it.replans) }))
	put("compute.dpr_s", "s", sum(func(it *iterRec) float64 { return it.dprS }))
	put("compute.li_s", "s", sum(func(it *iterRec) float64 { return it.liS }))
	put("compute.ppr_s", "s", sum(func(it *iterRec) float64 { return it.pprS }))
	put("store.mat_s", "s", sum(func(it *iterRec) float64 { return it.matS }))
	put("store.flush_wait_s", "s", sum(func(it *iterRec) float64 { return it.flush }))
	put("store.written_mb", "MB", sum(func(it *iterRec) float64 { return float64(it.writtenB) / (1 << 20) }))
	loadedMB := sum(func(it *iterRec) float64 { return float64(it.loadedB) / (1 << 20) })
	put("store.loaded_mb", "MB", loadedMB)
	put("store.load_mb_per_s", "MB/s", passMedian(traced, func(p *passRec) float64 {
		mb := iterSum(func(it *iterRec) float64 { return float64(it.loadedB) / (1 << 20) })(p)
		return mb / iterSum(func(it *iterRec) float64 { return it.loadS })(p)
	}))
	put("store.storage_mb", "MB", passMedian(traced, func(p *passRec) float64 { return p.storageMB }))
	put("runtime.alloc_mb", "MB", passMedian(untraced, func(p *passRec) float64 { return p.allocMB }))
	put("runtime.gc_cycles", "count", passMedian(untraced, func(p *passRec) float64 { return p.gcCycles }))
	put("runtime.gc_pause_s", "s", passMedian(untraced, func(p *passRec) float64 { return p.gcPauseS }))
	put("runtime.cpu_s", "s", passMedian(untraced, func(p *passRec) float64 { return p.cpuS }))
	lat, _ := classLatency(untraced)
	put("iter.ppr_s", "s", lat[classPPR])
	put("iter.rerun_s", "s", lat[classRerun])
	tracedCum := passMedian(traced, func(p *passRec) float64 { return p.cumulative })
	untracedCum := passMedian(untraced, func(p *passRec) float64 { return p.cumulative })
	put("trace.overhead_s", "s", tracedCum-untracedCum)

	fmt.Fprintf(out, "store.load_mb_per_s base: %.2f MB loaded in %.4f s of load time per pass (medians)\n",
		loadedMB, m["exec.load_s"].Value)
	fmt.Fprintf(out, "tracing overhead: cumulative_s traced %.4f s - untraced %.4f s = %.4f s (%d traced, %d untraced passes)\n",
		tracedCum, untracedCum, tracedCum-untracedCum, len(traced), len(untraced))

	var traces []*passTrace
	for _, p := range traced {
		traces = append(traces, p.trace)
	}
	rows, residuals := layerTable(traces)
	fmt.Fprintf(out, "per-layer spans over %d traced passes (self = duration - children's coverage):\n", len(traced))
	fmt.Fprintf(out, "  %-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-28s %8d %12.4f %12.4f\n", r.name, r.count, r.total, r.self)
	}
	fmt.Fprintf(out, "Run latency = prepare + plan + nodes + flush + finish + residual; residual share of each Run: median %.3f, max %.3f over %d Runs\n",
		median(residuals), quantile(residuals, 1), len(residuals))
	return m
}
