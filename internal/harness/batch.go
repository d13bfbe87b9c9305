// Batched lockstep execution at the harness level (DESIGN.md §11): the
// bridge between the engines' RunBatch entry points and the serving
// coalescer. A batch groups several runs of ONE compiled graph — same
// program, same args, same lowering — and advances them in lockstep on a
// single worker, so duplicate-workload traffic amortizes graph dispatch
// the way vector lanes amortize instruction fetch. Per-item results are
// bit-identical to Run of that item alone (enforced by the differential
// suite and the committed batch golden digests).
package harness

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/metrics"
	"repro/internal/ordered"
)

// BatchItem is one member of a lockstep batch: a workload, the system to
// run it on, and that run's own configuration. Items in one batch must
// share a compiled-graph identity (program + args + lowering) and an
// engine family — tagged (tyr/unordered, which share the tagged
// lowering and may co-batch even across policies) or ordered. The
// serving coalescer guarantees identity by grouping on the graph-cache
// key; the differential suite guarantees the results don't care.
type BatchItem struct {
	App    *apps.App
	System string
	Cfg    SysConfig
}

// BatchOutcome is one item's result, positionally matching the item
// slice passed to RunBatch.
type BatchOutcome struct {
	Stats metrics.RunStats
	Err   error
}

// BatchFamily classifies a system by which engine's lockstep batcher can
// run it; the interpreter-driven baselines have no graph to share and
// fall back to sequential runs.
func BatchFamily(system string) string {
	switch system {
	case SysTyr, SysUnordered:
		return "tagged"
	case SysOrdered:
		return "ordered"
	default:
		return "serial"
	}
}

// RunBatch executes every item of a lockstep batch. The returned slice
// has one outcome per item, in order; a top-level error means the batch
// was malformed (empty, or mixed engine families) and nothing ran.
//
// The graph is compiled once from the first item (through its Compiler,
// when one is injected) and shared read-only across all instances.
// Interpreter-driven systems (vN, seqdf) run sequentially through Run —
// batching only helps when there is a graph to share. Wall-clock is
// reported as each item's amortized share of the batch: batch wall time
// divided by the item count, the req/s methodology in the README.
func RunBatch(items []BatchItem) ([]BatchOutcome, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("harness: empty batch")
	}
	family := BatchFamily(items[0].System)
	for i := range items {
		if f := BatchFamily(items[i].System); f != family {
			return nil, fmt.Errorf("harness: batch mixes engine families (%s item %d in a %s batch)", f, i, family)
		}
	}
	if family == "serial" || len(items) == 1 {
		out := make([]BatchOutcome, len(items))
		for i, it := range items {
			rs, err := Run(it.App, it.System, it.Cfg)
			out[i] = BatchOutcome{Stats: rs, Err: err}
		}
		return out, nil
	}
	start := time.Now()
	out, err := runGraphBatch(family, items)
	if err != nil {
		return nil, err
	}
	share := time.Since(start).Nanoseconds() / int64(len(items))
	for i := range out {
		out[i].Stats.WallNS = share
		out[i].Stats.TraceID = items[i].Cfg.TraceID
		if out[i].Err == nil {
			items[i].Cfg.Telemetry.Record(out[i].Stats)
		}
	}
	return out, nil
}

// runGraphBatch drives the engine-level lockstep batchers for the two
// graph families, then validates and converts each outcome.
func runGraphBatch(family string, items []BatchItem) ([]BatchOutcome, error) {
	graphs := GraphSource(compileSource{})
	if items[0].Cfg.Compiler != nil {
		graphs = items[0].Cfg.Compiler
	}
	var g *dfg.Graph
	var err error
	if family == "tagged" {
		g, err = graphs.Tagged(items[0].App)
	} else {
		g, err = graphs.Ordered(items[0].App)
	}
	if err != nil {
		return nil, err
	}
	envs := make([]runEnv, len(items))
	for i, it := range items {
		if envs[i], err = prepare(it, g); err != nil {
			return nil, fmt.Errorf("harness: batch item %d: %w", i, err)
		}
	}

	out := make([]BatchOutcome, len(items))
	switch family {
	case "tagged":
		insts := make([]core.BatchInstance, len(items))
		for i, it := range items {
			ecfg := coreConfigFor(it.System, it.Cfg.withDefaults())
			ecfg.Memory = envs[i].memory()
			insts[i] = core.BatchInstance{Cfg: ecfg, Im: envs[i].im}
		}
		outs, err := core.RunBatch(g, insts)
		if err != nil {
			return nil, err
		}
		for i, o := range outs {
			out[i].Stats, out[i].Err = settle(items[i], envs[i], coreStats(o.Res), o.Res.ResultValue, o.Err)
		}

	case "ordered":
		insts := make([]ordered.BatchInstance, len(items))
		for i, it := range items {
			ocfg := orderedConfigFor(it.Cfg.withDefaults())
			ocfg.Memory = envs[i].memory()
			insts[i] = ordered.BatchInstance{Cfg: ocfg, Im: envs[i].im}
		}
		outs, err := ordered.RunBatch(g, insts)
		if err != nil {
			return nil, err
		}
		for i, o := range outs {
			out[i].Stats, out[i].Err = settle(items[i], envs[i], orderedStats(o.Res), o.Res.ResultValue, o.Err)
		}
	}
	return out, nil
}

// BatchGroups splits a request list into lockstep-batchable groups of at
// most batchSize items: items co-batch when they share an engine family
// and a grouping key (the caller's notion of graph identity — the
// serving layer passes its graph-cache key). Group order follows first
// appearance; item order within a group is preserved. batchSize <= 1
// yields singleton groups (no batching).
func BatchGroups(keys []string, systems []string, batchSize int) [][]int {
	var groups [][]int
	open := make(map[string]int) // grouping key -> index into groups of its open group
	for i := range keys {
		if batchSize <= 1 {
			groups = append(groups, []int{i})
			continue
		}
		k := BatchFamily(systems[i]) + "\x00" + keys[i]
		if BatchFamily(systems[i]) == "serial" {
			groups = append(groups, []int{i})
			continue
		}
		gi, ok := open[k]
		if !ok || len(groups[gi]) >= batchSize {
			groups = append(groups, nil)
			gi = len(groups) - 1
			open[k] = gi
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}
