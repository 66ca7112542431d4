package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"helix"
)

// The wide-dag workflow has the shape of the planner micro-benchmark's
// DAG (internal/bench.benchPlanDAG): wdLayers layers of wdWidth
// operators, each reading wdFanIn neighbours of the previous layer.
const (
	wdLayers = 50
	wdWidth  = 20
	wdFanIn  = 5
	// Layers [0, wdLILayer) are data preprocessing (a source layer, then
	// extractors), [wdLILayer, wdLayers-1) are learners, and the last
	// layer holds the reducers, which are the workflow's outputs.
	wdLILayer = 25
)

// Deterministic CPU work per operator, in xorshift rounds. A light
// operator takes about 0.2 ms here and a heavy one about 6 ms (Xeon,
// 2 vCPU). Algorithm 2 materializes a result when its cumulative time
// C(n) exceeds 2·l(n); for these few-byte values l(n) is the store's
// 1 ms seek estimate, so the threshold sits near 2 ms. The source layer
// and every edited operator are heavy: each computed operator then has
// a heavy ancestor or is heavy itself, so its C(n) is at least 3× the
// threshold and every materialization decision is the same on every
// pass. Light operators keep the cost of an edit's downstream cone low.
const (
	wdLightRounds = 1_250_000
	wdHeavyRounds = 2_500_000
)

// wdEdit is one scheduled edit: the operator whose params change.
type wdEdit struct {
	layer, col int
}

// wideDAG is a seeded synthetic workflow of ~1,000 small operators. The
// seed picks the edit targets and salts every operator's value; the
// shape and per-operator work are fixed, so every seed costs the same.
type wideDAG struct {
	targets map[int]wdEdit // schedule index → edited operator
	heavy   map[wdEdit]bool
	version map[wdEdit]int
	salt    uint64
}

// wideDAGSchedule is the pass's iteration classes. The order and the
// edited layers are fixed, so every seed does the same amount of work;
// the seed picks which column each edit touches and salts every value.
var wideDAGSchedule = []string{
	classCold, classDPR, classRerun, classPPR, classLI,
	classPPR, classDPR, classRerun, classLI, classPPR,
}

// Edited layers: a DPR edit recomputes a cone of about 500 operators,
// an L/I edit one of about 60, a PPR edit one reducer.
const (
	wdDPREditLayer = wdLILayer - 3
	wdLIEditLayer  = wdLayers - 7
)

func newWideDAG(seed int64) *wideDAG {
	rng := rand.New(rand.NewSource(seed))
	w := &wideDAG{
		targets: map[int]wdEdit{},
		heavy:   map[wdEdit]bool{},
		version: map[wdEdit]int{},
		salt:    rng.Uint64(),
	}
	for t, c := range wideDAGSchedule {
		var e wdEdit
		switch c {
		case classDPR:
			e = wdEdit{layer: wdDPREditLayer, col: rng.Intn(wdWidth)}
		case classLI:
			e = wdEdit{layer: wdLIEditLayer, col: rng.Intn(wdWidth)}
		case classPPR:
			e = wdEdit{layer: wdLayers - 1, col: rng.Intn(wdWidth)}
		default:
			continue
		}
		w.targets[t] = e
		if c != classPPR {
			// Reducers are outputs, materialized unconditionally; only
			// the other edit targets need the heavy work.
			w.heavy[e] = true
		}
	}
	return w
}

// Schedule returns the pass's iteration classes, cold first.
func (w *wideDAG) Schedule() []string { return wideDAGSchedule }

// Mutate applies schedule step t's edit: a new params version for its
// target operator.
func (w *wideDAG) Mutate(t int) {
	if e, ok := w.targets[t]; ok {
		w.version[e]++
	}
}

// Build declares the current version of the workflow.
func (w *wideDAG) Build() *helix.Workflow {
	wf := helix.New("wide-dag")
	var prev []*helix.Op
	for l := 0; l < wdLayers; l++ {
		cur := make([]*helix.Op, wdWidth)
		for c := 0; c < wdWidth; c++ {
			e := wdEdit{layer: l, col: c}
			rounds := wdLightRounds
			if l == 0 || w.heavy[e] {
				rounds = wdHeavyRounds
			}
			ver := w.version[e]
			name := fmt.Sprintf("n%02d_%02d", l, c)
			params := fmt.Sprintf("op(l=%d,c=%d,rounds=%d,v=%d)", l, c, rounds, ver)
			fn := wdOperator(w.salt^uint64(l*wdWidth+c)<<20^uint64(ver), rounds)
			var ins []*helix.Op
			for k := 0; k < wdFanIn && l > 0; k++ {
				ins = append(ins, prev[(c+k)%wdWidth])
			}
			switch {
			case l == 0:
				cur[c] = wf.Source(name, params, fn)
			case l < wdLILayer:
				cur[c] = wf.Extractor(name, params, fn, ins...)
			case l < wdLayers-1:
				cur[c] = wf.Learner(name, params, fn, ins...)
			default:
				cur[c] = wf.Reducer(name, params, fn, ins...).IsOutput()
			}
		}
		prev = cur
	}
	return wf
}

// wdOperator returns an operator that folds its inputs and salt into a
// hash, runs rounds of xorshift on it, and emits four floats in [0, 1).
func wdOperator(salt uint64, rounds int) helix.Func {
	return func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		h := salt*0x9e3779b97f4a7c15 | 1
		for _, v := range in {
			for _, f := range v.([]float64) {
				h = (h ^ math.Float64bits(f)) * 0x100000001b3
			}
		}
		h = wdSpin(h, rounds)
		out := make([]float64, 4)
		for i := range out {
			h = wdSpin(h, 1)
			out[i] = float64(h>>11) / (1 << 53)
		}
		return out, nil
	}
}

// wdSpin runs rounds of xorshift64 on h: deterministic CPU work.
func wdSpin(h uint64, rounds int) uint64 {
	for i := 0; i < rounds; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
	return h
}
