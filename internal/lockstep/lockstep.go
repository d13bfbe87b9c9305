// Package lockstep is the batched-execution driver shared by the tagged
// (core) and ordered engines (DESIGN.md §11): one worker advances B
// independent simulation instances of the same compiled graph, one cycle
// each per round.
//
// Each engine keeps every piece of mutable machine state on its
// per-instance machine, so instances are isolated by construction and
// each one's result is bit-identical to a serial run of that instance
// alone. The engine's RunBatch validates the batch, builds the shared
// read-only graph plan and the machines, and hands them to Run; the
// driver owns only the schedule.
//
// Instances retire independently: a finished (or failed, or cancelled)
// instance clears its bit in the active-instance bitset and the batch
// rolls on without it, so one long-running cell never stalls its
// neighbours' completions and a mid-batch deadline cancels exactly one
// instance.
package lockstep

import "repro/internal/cancel"

// MaxWidth bounds the lockstep width; beyond this the per-instance state
// no longer fits any cache level and the amortization argument inverts.
const MaxWidth = 1024

// Machine is one instance of a lockstep batch, as an engine exposes it
// to the driver. R is the engine's result type.
type Machine[R any] interface {
	// Start readies the instance for its first cycle; an error retires
	// it before the first round.
	Start() error
	// Stop is the instance's own cancel flag (nil: never stopped).
	Stop() *cancel.Flag
	// StopErr is the error a stopped instance retires with.
	StopErr() error
	// StepCycle advances the instance by one cycle and reports whether
	// the run has ended.
	StepCycle() (done bool, err error)
	// Finish assembles the result of an instance whose run has ended.
	Finish() (R, error)
}

// Outcome is one instance's result. Err carries per-instance failures
// (cancellation, MaxCycles, program bugs).
type Outcome[R any] struct {
	Res R
	Err error
}

// Run drives every machine to completion in lockstep and returns one
// outcome per machine, in order.
func Run[R any](ms []Machine[R]) []Outcome[R] {
	b := &batch[R]{
		ms:     ms,
		out:    make([]Outcome[R], len(ms)),
		active: make([]uint64, (len(ms)+63)/64),
	}
	for i, m := range ms {
		if err := m.Start(); err != nil {
			b.out[i] = Outcome[R]{Err: err}
			continue
		}
		b.setActive(i)
	}
	b.run()
	return b.out
}

// batch drives B machines in lockstep. The active bitset tracks
// instances still running; retirement clears a bit without disturbing
// the others.
type batch[R any] struct {
	ms      []Machine[R]
	out     []Outcome[R]
	active  []uint64
	nActive int
}

func (b *batch[R]) setActive(i int) {
	b.active[i>>6] |= 1 << (i & 63)
	b.nActive++
}

//tyr:hotpath
func (b *batch[R]) isActive(i int) bool {
	return b.active[i>>6]&(1<<(i&63)) != 0
}

// retire removes instance i from the lockstep rotation and records its
// outcome: the finished result, or the error that ended it.
func (b *batch[R]) retire(i int, err error) {
	b.active[i>>6] &^= 1 << (i & 63)
	b.nActive--
	if err != nil {
		b.out[i] = Outcome[R]{Err: err}
		return
	}
	res, ferr := b.ms[i].Finish()
	b.out[i] = Outcome[R]{Res: res, Err: ferr}
}

// run is the lockstep loop: every round advances each still-active
// instance by one cycle, polling that instance's own cancel flag first so
// a per-request deadline retires exactly its instance within one cycle
// boundary.
//
//tyr:cycleloop
func (b *batch[R]) run() {
	for b.nActive > 0 {
		for i, m := range b.ms {
			if !b.isActive(i) {
				continue
			}
			if m.Stop().Stopped() {
				b.retire(i, m.StopErr())
				continue
			}
			done, err := m.StepCycle()
			if err != nil {
				b.retire(i, err)
				continue
			}
			if done {
				b.retire(i, nil)
			}
		}
	}
}
