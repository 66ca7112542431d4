package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"helix"
	"helix/internal/core"
)

// span is one timed interval of a traced pass. Spans of one iteration
// share iter; parent names the enclosing span ("" for a pass-level span).
type span struct {
	name, cat, parent string
	iter              string
	start, end        time.Time
	args              map[string]any
}

func (s span) dur() float64 { return s.end.Sub(s.start).Seconds() }

// nodeStart is what the observer records when a node starts.
type nodeStart struct {
	at    time.Time
	state core.State
}

// runSpans is the observer's record of one Run, kept in memory.
type runSpans struct {
	mu       sync.Mutex
	started  map[string]nodeStart
	retired  map[string]float64 // node → own seconds
	planAt   time.Time
	planDur  time.Duration
	flushAt  time.Time
	flushDur time.Duration
	doneAt   time.Time
	solves   int
	replans  int
}

// passTrace collects one traced pass's spans.
type passTrace struct {
	pass  int
	iter  string
	dag   *core.DAG
	run   *runSpans
	spans []span
}

func newPassTrace(pass int) *passTrace { return &passTrace{pass: pass, iter: fmt.Sprintf("p%d", pass)} }

// span records a benchmark call. A nil trace records nothing.
func (tr *passTrace) span(name string, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{name: name, cat: "bench", iter: tr.iter, start: start, end: end})
}

// beginIter starts iteration t: later spans carry its id.
func (tr *passTrace) beginIter(t int, class string) {
	tr.iter = fmt.Sprintf("p%d.i%d.%s", tr.pass, t, class)
	tr.run = &runSpans{started: map[string]nodeStart{}, retired: map[string]float64{}}
}

// setDAG gives the trace the compiled DAG, for node parents.
func (tr *passTrace) setDAG(d *core.DAG) { tr.dag = d }

// observe is the Run's observer: it timestamps events and keeps them.
func (tr *passTrace) observe(ev helix.RunEvent) {
	now := time.Now()
	r := tr.run
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e := ev.(type) {
	case helix.PlanEvent:
		r.planAt, r.planDur = now, e.PlanTime
	case helix.NodeEvent:
		if e.Phase == helix.NodeStarted {
			r.started[e.Name] = nodeStart{at: now, state: e.State}
		} else {
			r.retired[e.Name] = e.Seconds
		}
	case helix.FlushEvent:
		r.flushAt, r.flushDur = now, e.Wait
	case helix.RunStatsEvent:
		r.solves, r.replans = e.Solves, e.Replans
	case helix.DoneEvent:
		r.doneAt = now
	}
}

// endRun turns the finished Run's events into spans: the Run itself;
// under it the work before planning (Session.Run's configuration and
// compile), planning, one span per executed node, the flush barrier, and
// the session's work after the engine returned (history, state save). A node's span runs from its
// NodeStarted timestamp for the own time its NodeRetired event reports;
// retirement itself waits until the node's computing children finish
// (Definition 5), so its timestamp is not the node's end.
func (tr *passTrace) endRun(start, end time.Time, res *helix.Result, it *iterRec) {
	r := tr.run
	run := "helix.Run"
	tr.spans = append(tr.spans, span{name: run, cat: "bench", iter: tr.iter, start: start, end: end,
		args: map[string]any{"cache": res.Plan.Cache.String(), "projected_s": res.Plan.ProjectedSeconds}})
	child := func(name, cat string, s, e time.Time, args map[string]any) {
		tr.spans = append(tr.spans, span{name: name, cat: cat, parent: run, iter: tr.iter, start: s, end: e, args: args})
	}
	if !r.planAt.IsZero() {
		planStart := r.planAt.Add(-r.planDur)
		child("helix.prepare", "helix", start, planStart, nil)
		child("plan", "plan", planStart, r.planAt, nil)
	}
	ends := make(map[string]time.Time, len(r.started))
	names := make([]string, 0, len(r.started))
	for name := range r.started {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns := r.started[name]
		ends[name] = ns.at.Add(time.Duration(r.retired[name] * float64(time.Second)))
	}
	for _, name := range names {
		ns := r.started[name]
		comp := "?"
		if n := tr.dag.Node(name); n != nil {
			comp = n.Component.String()
		}
		// Ready time: the plan's end for a load or a root, else the
		// latest end among the parents that ran this iteration.
		ready := r.planAt
		if n := tr.dag.Node(name); n != nil && ns.state == core.StateCompute {
			for _, p := range n.Parents() {
				if e, ok := ends[p.Name]; ok && e.After(ready) {
					ready = e
				}
			}
		}
		if w := ns.at.Sub(ready).Seconds(); w > 0 {
			it.queueWait += w
		}
		it.nodeBusyS += ends[name].Sub(ns.at).Seconds()
		child("node."+ns.state.String()+"."+comp, "node", ns.at, ends[name], map[string]any{"node": name})
	}
	if !r.flushAt.IsZero() {
		child("store.flush", "store", r.flushAt.Add(-r.flushDur), r.flushAt, nil)
	}
	if !r.doneAt.IsZero() {
		child("helix.finish", "helix", r.doneAt, end, nil)
	}
	it.solves, it.replans = r.solves, r.replans
}

// coverage is the length of the union of the intervals, in seconds.
func coverage(iv [][2]time.Time) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total float64
	var curS, curE time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS).Seconds()
			}
			curS, curE = v[0], v[1]
			continue
		}
		if v[1].After(curE) {
			curE = v[1]
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS).Seconds()
	}
	return total
}

// layerRow is one row of the traced run's per-layer table.
type layerRow struct {
	name        string
	count       int
	total, self float64
}

// layerTable aggregates span durations and self times by span name. A
// span's self time is its duration minus the union of its children. It
// also returns, per Run, the residual: the share of Run latency no child
// span covers, which is the engine's dispatch and retirement work
// between nodes.
func layerTable(traces []*passTrace) ([]layerRow, []float64) {
	rows := map[string]*layerRow{}
	var residuals []float64
	for _, tr := range traces {
		children := map[string][][2]time.Time{} // parent key → intervals
		key := func(s span) string { return s.iter + "/" + s.name }
		for _, s := range tr.spans {
			if s.parent != "" {
				k := s.iter + "/" + s.parent
				children[k] = append(children[k], [2]time.Time{s.start, s.end})
			}
		}
		for _, s := range tr.spans {
			row := rows[s.name]
			if row == nil {
				row = &layerRow{name: s.name}
				rows[s.name] = row
			}
			self := s.dur()
			if s.parent == "" {
				if iv := children[key(s)]; len(iv) > 0 {
					self -= coverage(iv)
				}
				if s.name == "helix.Run" && s.dur() > 0 {
					residuals = append(residuals, self/s.dur())
				}
			}
			row.count++
			row.total += s.dur()
			row.self += self
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out, residuals
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. Benchmark calls and the Run's
// planning/flush/finish children are on thread 0; nodes are packed onto
// threads 1.. so that spans on one thread never overlap.
func writeChromeTrace(w io.Writer, traces []*passTrace) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var origin time.Time
	for _, tr := range traces {
		for _, s := range tr.spans {
			if origin.IsZero() || s.start.Before(origin) {
				origin = s.start
			}
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(origin).Nanoseconds()) / 1e3 }
	events := []event{{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": "benchmark"}}}
	lanes := 0
	for _, tr := range traces {
		var laneEnd []time.Time
		nodes := make([]span, 0, len(tr.spans))
		for _, s := range tr.spans {
			if s.cat == "node" {
				nodes = append(nodes, s)
				continue
			}
			args := map[string]any{"iter": s.iter}
			for k, v := range s.args {
				args[k] = v
			}
			events = append(events, event{Name: s.name, Cat: s.cat, Ph: "X", Ts: us(s.start), Dur: math.Max(us(s.end)-us(s.start), 0), Pid: 1, Tid: 0, Args: args})
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].start.Before(nodes[j].start) })
		for _, s := range nodes {
			lane := -1
			for i, e := range laneEnd {
				if !s.start.Before(e) {
					lane = i
					break
				}
			}
			if lane < 0 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, time.Time{})
			}
			laneEnd[lane] = s.end
			args := map[string]any{"iter": s.iter}
			for k, v := range s.args {
				args[k] = v
			}
			events = append(events, event{Name: s.name, Cat: s.cat, Ph: "X", Ts: us(s.start), Dur: math.Max(us(s.end)-us(s.start), 0), Pid: 1, Tid: lane + 1, Args: args})
		}
		lanes = max(lanes, len(laneEnd))
	}
	for i := 1; i <= lanes; i++ {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i, Args: map[string]any{"name": fmt.Sprintf("node lane %d", i)}})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// saveChromeTrace writes the trace file and returns its path.
func saveChromeTrace(path string, traces []*passTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
