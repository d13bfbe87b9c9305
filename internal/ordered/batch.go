package ordered

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/dfg"
	"repro/internal/lockstep"
	"repro/internal/mem"
)

// Batched lockstep execution for the ordered baseline runs on the shared
// internal/lockstep driver, as core.RunBatch does (DESIGN.md §11). All
// mutable state (queues, staged buffers, calendar queue, counters) is
// per-instance; the batch shares only the read-only graph and its
// graphPlan (port index, producers-of lists, region mapping), so each
// instance's Result is bit-identical to a serial run of that instance
// alone.

// BatchInstance is one instance of a lockstep batch: its own memory
// image and configuration. Per-instance Memory models and Tracers must
// not be shared between instances.
type BatchInstance struct {
	Cfg Config
	Im  *mem.Image
}

// BatchOutcome is one instance's result, positionally matching the
// instance slice passed to RunBatch.
type BatchOutcome = lockstep.Outcome[Result]

// RunBatch executes every instance of a lockstep batch against one
// compiled ordered graph. A top-level error means the batch itself was
// malformed and nothing ran; per-instance failures land in outcomes.
func RunBatch(g *dfg.Graph, insts []BatchInstance) ([]BatchOutcome, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("ordered: empty batch")
	}
	if len(insts) > lockstep.MaxWidth {
		return nil, fmt.Errorf("ordered: batch of %d exceeds the %d-instance cap", len(insts), lockstep.MaxWidth)
	}
	plan, err := planFor(g, insts[0].Im)
	if err != nil {
		return nil, err
	}
	ms := make([]lockstep.Machine[Result], len(insts))
	for i := range insts {
		cfg := insts[i].Cfg.withDefaults()
		if err := validateConfig(cfg); err != nil {
			return nil, fmt.Errorf("ordered: batch instance %d: %w", i, err)
		}
		if !plan.matches(g, insts[i].Im) {
			return nil, fmt.Errorf("ordered: batch instance %d: memory image region layout differs from instance 0 (batches share one graph plan)", i)
		}
		ms[i] = lane{newMachineFromPlan(g, insts[i].Im, cfg, plan)}
	}
	return lockstep.Run(ms), nil
}

// lane adapts a machine to the lockstep driver.
type lane struct{ *machine }

func (l lane) Start() error             { l.start(); return nil }
func (l lane) Stop() *cancel.Flag       { return l.cfg.Stop }
func (l lane) StopErr() error           { return l.stopErr() }
func (l lane) StepCycle() (bool, error) { return l.stepCycle() }
func (l lane) Finish() (Result, error)  { return l.finish() }
