package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"helix"
	"helix/internal/store"
	"helix/internal/workloads"
)

// config is one benchmark run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	procs    int
}

// decision is one iteration's materialization/plan outcome: how many
// live nodes were computed, loaded and pruned, how many results were
// written, and the store's size afterwards.
type decision struct {
	computed, loaded, pruned, materialized int
	stored                                 int64
}

// iterRec is one measured Run.
type iterRec struct {
	step                  int // position in the pass schedule
	class                 string
	latency               float64 // seconds, around Session.Run
	wall, planTime, flush float64
	outcome               helix.PlanCacheOutcome
	projected             float64
	computeS, loadS       float64
	dprS, liS, pprS       float64
	matS                  float64
	writtenB, loadedB     int64
	dec                   decision
	compileS, signatureS  float64 // traced only
	solves, replans       int     // traced only
	queueWait, nodeBusyS  float64 // traced only
}

// passRec is one pass: a fresh store and workload instance run through
// the whole schedule plus the unchanged re-runs.
type passRec struct {
	traced     bool
	setupS     []float64
	iters      []iterRec
	cumulative float64
	closeS     float64
	allocMB    float64
	gcCycles   float64
	gcPauseS   float64
	cpuS       float64
	storageMB  float64
	trace      *passTrace
}

// bench holds one run's state.
type bench struct {
	cfg       config
	ref       []map[string]refValue // per schedule step, by output name
	attempted int
	failed    int
	failures  []string
	npass     int
	seq       int
}

// sessionOptions are the benchmark's Open options on top of the library
// defaults: every worker pool sized to the CPU count.
func (b *bench) sessionOptions() []helix.Option {
	return []helix.Option{
		helix.WithWorkerClass(helix.WorkerCompute, b.cfg.procs),
		helix.WithWorkerClass(helix.WorkerIO, b.cfg.procs),
		helix.WithWorkerClass(helix.WorkerMat, b.cfg.procs),
	}
}

// freshDir returns a new empty store directory under the work dir.
func (b *bench) freshDir() (string, error) {
	b.seq++
	dir := fmt.Sprintf("%s/stores/%d-%d", b.cfg.workdir, os.Getpid(), b.seq)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// reference computes every schedule step's outputs with reuse off and
// nothing materialized, and keeps their canonical encodings.
func (b *bench) reference(ctx context.Context) error {
	inst, err := newInstance(b.cfg.workload, b.cfg.seed, b.cfg.procs)
	if err != nil {
		return err
	}
	dir, err := b.freshDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	workloads.RegisterAll()
	opts := append(b.sessionOptions(), helix.WithReuse(false), helix.WithPolicy(helix.PolicyNever))
	sess, err := helix.Open(dir, opts...)
	if err != nil {
		return err
	}
	defer sess.Close()
	for t, class := range passSchedule(inst) {
		if class == classRerun {
			// Nothing changed since step t-1.
			b.ref = append(b.ref, b.ref[t-1])
			continue
		}
		inst.Mutate(t)
		res, err := sess.Run(ctx, inst.Build())
		if err != nil {
			return fmt.Errorf("reference step %d: %w", t, err)
		}
		ref := make(map[string]refValue, len(res.Values))
		for name, v := range res.Values {
			data, err := store.Encode(v)
			if err != nil {
				return fmt.Errorf("reference step %d: output %s: %w", t, name, err)
			}
			ref[name] = refValue{v, data}
		}
		b.ref = append(b.ref, ref)
	}
	return nil
}

// refValue is one reference output and its canonical encoding.
type refValue struct {
	value   any
	encoded []byte
}

// check compares one Run's outputs with the reference for step t and
// returns a description of the first difference, or "". Outputs compare
// by their canonical encoding; gob writes maps in iteration order, so
// when the bytes differ the values are compared structurally before a
// mismatch is declared.
func (b *bench) check(t int, res *helix.Result) string {
	want := b.ref[t]
	if len(res.Values) != len(want) {
		return fmt.Sprintf("step %d: %d outputs, want %d", t, len(res.Values), len(want))
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := res.Values[name]
		if !ok {
			return fmt.Sprintf("step %d: output %s missing", t, name)
		}
		got, err := store.Encode(v)
		if err != nil {
			return fmt.Sprintf("step %d: output %s: %v", t, name, err)
		}
		if !bytes.Equal(got, want[name].encoded) && !reflect.DeepEqual(v, want[name].value) {
			return fmt.Sprintf("step %d: output %s differs from the reuse-off reference", t, name)
		}
	}
	return ""
}

// trailingReruns is how many unchanged re-runs follow the schedule.
const trailingReruns = 4

// passSchedule is a pass's Runs: the workload's schedule, then the
// unchanged re-runs.
func passSchedule(inst instance) []string {
	sched := append([]string(nil), inst.Schedule()...)
	for i := 0; i < trailingReruns; i++ {
		sched = append(sched, classRerun)
	}
	return sched
}

// setupSamples is how many times a pass times session set-up: the Open
// that starts the pass plus extra Open/Close pairs on fresh directories.
const setupSamples = 20

// openTimed registers the workload types and opens a session on dir,
// returning the session and the time both took.
func (b *bench) openTimed(dir string) (*helix.Session, float64, error) {
	quiesce()
	start := time.Now()
	workloads.RegisterAll()
	sess, err := helix.Open(dir, b.sessionOptions()...)
	return sess, time.Since(start).Seconds(), err
}

// pass runs one pass. A traced pass also records spans and the
// observer-derived per-layer numbers.
func (b *bench) pass(ctx context.Context, traced bool) (*passRec, error) {
	b.npass++
	rec := &passRec{traced: traced}
	var tr *passTrace
	if traced {
		tr = newPassTrace(b.npass)
		rec.trace = tr
	}
	// Extra set-up samples, on directories the pass does not use.
	for i := 1; i < setupSamples; i++ {
		dir, err := b.freshDir()
		if err != nil {
			return nil, err
		}
		sess, s, err := b.openTimed(dir)
		if err != nil {
			return nil, err
		}
		rec.setupS = append(rec.setupS, s)
		if err := sess.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}

	inst, err := newInstance(b.cfg.workload, b.cfg.seed, b.cfg.procs)
	if err != nil {
		return nil, err
	}
	dir, err := b.freshDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()

	sess, setup, err := b.openTimed(dir)
	if err != nil {
		return nil, err
	}
	openEnd := time.Now()
	rec.setupS = append(rec.setupS, setup)
	tr.span("helix.Open", openEnd.Add(-time.Duration(setup*float64(time.Second))), openEnd)

	sched := passSchedule(inst)
	for t, class := range sched {
		inst.Mutate(t)
		buildStart := time.Now()
		wf := inst.Build()
		buildEnd := time.Now()
		it := iterRec{step: t, class: class}
		var opts []helix.Option
		if traced {
			tr.beginIter(t, class)
			tr.span("workload.Build", buildStart, buildEnd)
			c0 := time.Now()
			prog, err := wf.Compile()
			if err != nil {
				return nil, err
			}
			c1 := time.Now()
			prog.DAG.ComputeSignatures()
			c2 := time.Now()
			it.compileS = c1.Sub(c0).Seconds()
			it.signatureS = c2.Sub(c1).Seconds()
			tr.span("helix.Compile", c0, c1)
			tr.span("core.ComputeSignatures", c1, c2)
			tr.setDAG(prog.DAG)
			opts = append(opts, helix.WithObserver(tr.observe))
		}
		quiesce()
		start := time.Now()
		res, err := sess.Run(ctx, wf, opts...)
		end := time.Now()
		it.latency = end.Sub(start).Seconds()
		b.attempted++
		if err != nil {
			b.fail(fmt.Sprintf("step %d: %v", t, err))
			continue
		}
		if msg := b.check(t, res); msg != "" {
			b.fail(msg)
		}
		fillIter(&it, res, sess.StorageBytes())
		if traced {
			tr.endRun(start, end, res, &it)
		}
		rec.iters = append(rec.iters, it)
		if t < len(inst.Schedule()) {
			rec.cumulative += it.latency
		}
	}

	closeStart := time.Now()
	rec.storageMB = float64(sess.StorageBytes()) / (1 << 20)
	if err := sess.Close(); err != nil {
		return nil, err
	}
	closeEnd := time.Now()
	rec.closeS = closeEnd.Sub(closeStart).Seconds()
	tr.span("helix.Close", closeStart, closeEnd)

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rec.cpuS = cpuSeconds() - cpu0
	rec.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rec.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	rec.gcPauseS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	return rec, nil
}

func (b *bench) fail(msg string) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, msg)
	}
}

// fillIter copies one Result's numbers into it.
func fillIter(it *iterRec, res *helix.Result, stored int64) {
	it.wall = res.Wall.Seconds()
	it.planTime = res.PlanTime.Seconds()
	it.flush = res.FlushWait.Seconds()
	it.matS = res.MatTime.Seconds()
	it.dprS = res.Breakdown[helix.DPR].Seconds()
	it.liS = res.Breakdown[helix.LI].Seconds()
	it.pprS = res.Breakdown[helix.PPR].Seconds()
	if res.Plan != nil {
		it.outcome = res.Plan.Cache
		it.projected = res.Plan.ProjectedSeconds
	}
	it.dec.computed = res.StateCounts[helix.StateCompute]
	it.dec.loaded = res.StateCounts[helix.StateLoad]
	it.dec.pruned = res.StateCounts[helix.StatePrune]
	it.dec.stored = stored
	for _, n := range res.Nodes {
		switch n.State {
		case helix.StateCompute:
			it.computeS += n.Seconds
			if n.MatSecs > 0 {
				it.dec.materialized++
				it.writtenB += n.Bytes
			}
		case helix.StateLoad:
			it.loadS += n.Seconds
		}
	}
	// A loaded node's report carries no size; its plan row has the
	// stored size the load read.
	if res.Plan != nil {
		for _, np := range res.Plan.Nodes {
			if np.State == helix.StateLoad {
				it.loadedB += np.Node.Metrics.Size
			}
		}
	}
}

// quiesce stands in for a developer's think time before a timed call:
// it collects garbage (Go has no idle GC, so without this iteration t's
// garbage lands on t+1 by chance) and flushes dirty pages to disk, as
// the kernel's writeback would over a pause, so that a Run's fsyncs wait
// on its own writes rather than on earlier ones.
func quiesce() {
	syscall.Sync()
	runtime.GC()
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
