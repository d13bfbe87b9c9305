package lockstep

import (
	"errors"
	"testing"

	"repro/internal/cancel"
)

// fake finishes after `cycles` steps, or fails at step `failAt` (> 0), and
// counts every call the driver makes.
type fake struct {
	cycles, failAt int
	startErr       error
	stop           *cancel.Flag
	steps          int
	finished       int
}

var (
	errStart   = errors.New("start failed")
	errStep    = errors.New("step failed")
	errStopped = errors.New("stopped")
)

func (f *fake) Start() error       { return f.startErr }
func (f *fake) Stop() *cancel.Flag { return f.stop }
func (f *fake) StopErr() error     { return errStopped }
func (f *fake) StepCycle() (bool, error) {
	f.steps++
	if f.steps == f.failAt {
		return false, errStep
	}
	return f.steps == f.cycles, nil
}
func (f *fake) Finish() (int, error) { f.finished++; return f.steps, nil }

// TestRunRetiresEachInstanceAlone: every instance ends with its own
// outcome, is never stepped after it retires, and Finish runs exactly
// once, only for instances that completed. 130 instances span three
// bitset words.
func TestRunRetiresEachInstanceAlone(t *testing.T) {
	stopped := &cancel.Flag{}
	stopped.Stop()
	fakes := make([]*fake, 130)
	for i := range fakes {
		fakes[i] = &fake{cycles: 1 + i%7}
	}
	fakes[3].startErr = errStart
	fakes[64].failAt = 2
	fakes[129].stop = stopped

	ms := make([]Machine[int], len(fakes))
	for i, f := range fakes {
		ms[i] = f
	}
	out := Run(ms)
	if len(out) != len(fakes) {
		t.Fatalf("%d outcomes for %d instances", len(out), len(fakes))
	}
	for i, f := range fakes {
		o := out[i]
		switch i {
		case 3:
			if !errors.Is(o.Err, errStart) || f.steps != 0 {
				t.Errorf("start failure: outcome %+v after %d steps", o, f.steps)
			}
		case 64:
			if !errors.Is(o.Err, errStep) || f.steps != 2 {
				t.Errorf("step failure: outcome %+v after %d steps", o, f.steps)
			}
		case 129:
			if !errors.Is(o.Err, errStopped) || f.steps != 0 {
				t.Errorf("stopped: outcome %+v after %d steps", o, f.steps)
			}
		default:
			if o.Err != nil || o.Res != f.cycles || f.steps != f.cycles {
				t.Errorf("instance %d: outcome %+v after %d steps, want %d cycles", i, o, f.steps, f.cycles)
			}
		}
		want := 0
		if o.Err == nil {
			want = 1
		}
		if f.finished != want {
			t.Errorf("instance %d: Finish called %d times, want %d", i, f.finished, want)
		}
	}
}
