package core

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/dfg"
	"repro/internal/lockstep"
	"repro/internal/mem"
)

// Batched lockstep execution (DESIGN.md §11) runs on the shared
// internal/lockstep driver. What a core batch shares is everything
// read-only: the graph itself and the graphPlan's firing metadata
// (constant prefills, bitset widths, reserves, region indices), so graph
// traversal and dispatch state stay hot across instances the way vector
// lanes amortize instruction fetch.

// BatchInstance is one instance of a lockstep batch: its own memory image
// (mutated in place, exactly as Run would) and its own configuration —
// co-batched instances may differ in tag policy, budgets, stop flags, and
// attached tooling; only the compiled graph and the image's region layout
// must agree across the batch.
//
// Per-instance Memory models and Tracers must not be shared between
// instances: each machine drives its model with its own cycle clock.
type BatchInstance struct {
	Cfg Config
	Im  *mem.Image
}

// BatchOutcome is one instance's result, positionally matching the
// BatchInstance slice passed to RunBatch. Err carries per-instance
// failures (cancellation via the instance's Stop flag, MaxCycles,
// program bugs); a deadlock is a Result outcome, not an error, exactly
// as in Run.
type BatchOutcome = lockstep.Outcome[Result]

// RunBatch executes every instance of a lockstep batch against one
// compiled graph. The returned slice has one outcome per instance, in
// order. A top-level error means the batch itself was malformed (no
// instances, mismatched memory layouts, invalid policy configuration) and
// nothing ran.
//
// Instances run their sequential cycle loops interleaved one cycle at a
// time.
func RunBatch(g *dfg.Graph, insts []BatchInstance) ([]BatchOutcome, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if len(insts) > lockstep.MaxWidth {
		return nil, fmt.Errorf("core: batch of %d exceeds the %d-instance cap", len(insts), lockstep.MaxWidth)
	}
	plan, err := planFor(g, insts[0].Im)
	if err != nil {
		return nil, err
	}
	ms := make([]lockstep.Machine[Result], len(insts))
	for i := range insts {
		cfg := insts[i].Cfg.withDefaults()
		if err := validateConfig(cfg); err != nil {
			return nil, fmt.Errorf("core: batch instance %d: %w", i, err)
		}
		if !plan.matches(g, insts[i].Im) {
			return nil, fmt.Errorf("core: batch instance %d: memory image region layout differs from instance 0 (batches share one graph plan)", i)
		}
		ms[i] = lane{newMachineFromPlan(g, insts[i].Im, cfg, plan)}
	}
	return lockstep.Run(ms), nil
}

// lane adapts a machine to the lockstep driver.
type lane struct{ *machine }

func (l lane) Start() error             { return l.start() }
func (l lane) Stop() *cancel.Flag       { return l.cfg.Stop }
func (l lane) StopErr() error           { return l.stopErr() }
func (l lane) StepCycle() (bool, error) { return l.stepCycle() }
func (l lane) Finish() (Result, error)  { return l.finish() }
