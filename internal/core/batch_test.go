package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cancel"
	"repro/internal/lockstep"
	"repro/internal/mem"
)

// batchConfigs is a deliberately heterogeneous instance mix: every tag
// policy, small and large budgets, and a deadlocking pool — co-batched
// instances may differ in everything but the compiled graph.
func batchConfigs() []Config {
	return []Config{
		{Policy: PolicyTyr, TagsPerBlock: 2},
		{Policy: PolicyTyr, TagsPerBlock: 64},
		{Policy: PolicyGlobalUnlimited},
		{Policy: PolicyGlobalBounded, GlobalTags: 8}, // deadlocks on this workload
		{Policy: PolicyLocalNoGate, TagsPerBlock: 8},
		{Policy: PolicyKBound, TagsPerBlock: 4},
		{Policy: PolicyTyr, TagsPerBlock: 8, LoadLatency: 4},
		{Policy: PolicyTyr, TagsPerBlock: 4, CheckInvariants: true},
	}
}

// TestBatchBitIdentical proves the tentpole invariant at the engine level:
// every instance of a lockstep batch produces exactly the Result (and
// final memory image) a serial run of that instance alone produces.
func TestBatchBitIdentical(t *testing.T) {
	g := compileNested(t, 12, 9)
	cfgs := batchConfigs()

	insts := make([]BatchInstance, len(cfgs))
	ims := make([]*mem.Image, len(cfgs))
	for i, cfg := range cfgs {
		ims[i] = mem.NewImage()
		insts[i] = BatchInstance{Cfg: cfg, Im: ims[i]}
	}
	outs, err := RunBatch(g, insts)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		serialIm := mem.NewImage()
		want, werr := Run(g, serialIm, cfg)
		got := outs[i]
		if (got.Err == nil) != (werr == nil) {
			t.Fatalf("instance %d: batch err %v vs serial err %v", i, got.Err, werr)
		}
		if !reflect.DeepEqual(got.Res, want) {
			t.Errorf("instance %d (%s): batched Result diverged from serial\n  batch:  %+v\n  serial: %+v",
				i, cfg.Describe(), got.Res, want)
		}
		if ims[i].Checksum() != serialIm.Checksum() {
			t.Errorf("instance %d (%s): memory image diverged", i, cfg.Describe())
		}
	}
}

// TestBatchRetirement co-batches instances of very different lengths: the
// short ones must retire (with correct results) while the long one keeps
// running, and all outcomes must match their serial runs.
func TestBatchRetirement(t *testing.T) {
	short := compileNested(t, 2, 2)
	for _, b := range []int{2, 4, 8, 16} {
		insts := make([]BatchInstance, b)
		for i := range insts {
			cfg := Config{Policy: PolicyTyr, TagsPerBlock: 2 + i}
			insts[i] = BatchInstance{Cfg: cfg, Im: mem.NewImage()}
		}
		outs, err := RunBatch(short, insts)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("B=%d instance %d: %v", b, i, out.Err)
			}
			want, _ := Run(short, mem.NewImage(), insts[i].Cfg)
			if !reflect.DeepEqual(out.Res, want) {
				t.Errorf("B=%d instance %d: diverged from serial", b, i)
			}
		}
	}
}

// TestBatchPerInstanceStop arms one instance's cancel flag before the run:
// exactly that instance must report cancel.ErrStopped; its batchmates run
// to completion untouched — the mid-batch-deadline contract.
func TestBatchPerInstanceStop(t *testing.T) {
	g := compileNested(t, 10, 10)
	stopped := &cancel.Flag{}
	stopped.Stop()
	insts := []BatchInstance{
		{Cfg: Config{Policy: PolicyTyr, TagsPerBlock: 4}, Im: mem.NewImage()},
		{Cfg: Config{Policy: PolicyTyr, TagsPerBlock: 4, Stop: stopped}, Im: mem.NewImage()},
		{Cfg: Config{Policy: PolicyGlobalUnlimited}, Im: mem.NewImage()},
	}
	outs, err := RunBatch(g, insts)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[1].Err, cancel.ErrStopped) {
		t.Errorf("stopped instance err = %v, want ErrStopped", outs[1].Err)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Errorf("instance %d: unexpected err %v", i, outs[i].Err)
		}
		if !outs[i].Res.Completed {
			t.Errorf("instance %d: did not complete", i)
		}
	}
}

// TestBatchDeadlockIsolated: a deadlocking instance reports its deadlock
// as a Result (not an error) without disturbing completing batchmates.
func TestBatchDeadlockIsolated(t *testing.T) {
	g := compileNested(t, 64, 64)
	insts := []BatchInstance{
		{Cfg: Config{Policy: PolicyGlobalBounded, GlobalTags: 8}, Im: mem.NewImage()},
		{Cfg: Config{Policy: PolicyTyr, TagsPerBlock: 2}, Im: mem.NewImage()},
	}
	outs, err := RunBatch(g, insts)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || !outs[0].Res.Deadlocked {
		t.Errorf("bounded instance: err=%v deadlocked=%v, want deadlock result", outs[0].Err, outs[0].Res.Deadlocked)
	}
	if outs[1].Err != nil || !outs[1].Res.Completed {
		t.Errorf("tyr instance: err=%v completed=%v, want completion", outs[1].Err, outs[1].Res.Completed)
	}
}

func TestBatchRejectsEmptyAndOversized(t *testing.T) {
	g := compileNested(t, 2, 2)
	if _, err := RunBatch(g, nil); err == nil {
		t.Error("empty batch: want error")
	}
	big := make([]BatchInstance, lockstep.MaxWidth+1)
	for i := range big {
		big[i] = BatchInstance{Cfg: Config{Policy: PolicyGlobalUnlimited}, Im: mem.NewImage()}
	}
	if _, err := RunBatch(g, big); err == nil {
		t.Error("oversized batch: want error")
	}
}
