package main

import (
	"fmt"

	"helix"
	"helix/internal/collection"
	"helix/internal/core"
	"helix/internal/workloads"
)

// Iteration classes: what the edit before a Run touched.
const (
	classCold  = "cold"
	classDPR   = "dpr"
	classLI    = "li"
	classPPR   = "ppr"
	classRerun = "rerun"
)

var classes = []string{classCold, classDPR, classLI, classPPR, classRerun}

// instance is one fresh copy of a workload: its iteration schedule (the
// class of each Run), the edit applied before schedule step t (none past
// the schedule's end), and the workflow's current version.
type instance interface {
	Schedule() []string
	Mutate(t int)
	Build() *helix.Workflow
}

// newInstance returns a fresh instance of the named workload, seeded.
// workers sizes the census dataflow environment.
func newInstance(name string, seed int64, workers int) (instance, error) {
	switch name {
	case "census":
		c := workloads.NewCensus(workloads.Scale{Rows: 10}, seed)
		c.Env = &collection.Env{Workers: workers}
		return paperWorkload{c}, nil
	case "genomics":
		return paperWorkload{workloads.NewGenomics(workloads.Scale{Rows: 1}, seed)}, nil
	case "wide-dag":
		return newWideDAG(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want census, genomics or wide-dag)", name)
}

// paperWorkload adapts one of the paper's workloads and its own
// iteration schedule.
type paperWorkload struct{ workloads.Workload }

func (p paperWorkload) Schedule() []string {
	seq := p.Sequence()
	out := make([]string, 0, len(seq))
	for t, comp := range seq {
		out = append(out, componentClass(t, comp))
	}
	return out
}

func (p paperWorkload) Mutate(t int) {
	seq := p.Sequence()
	if t > 0 && t < len(seq) {
		p.Workload.Mutate(t, seq[t])
	}
}

func componentClass(t int, comp core.Component) string {
	switch {
	case t == 0:
		return classCold
	case comp == core.DPR:
		return classDPR
	case comp == core.LI:
		return classLI
	}
	return classPPR
}
