package harness

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ordered"
	"repro/internal/seqdf"
)

// TestMachineDefaultsAgree pins that a zero SysConfig and each engine's
// zero Config resolve the same machine: the harness resolves to the
// metrics defaults, and an engine run with a zero Config equals the run
// the harness makes from SysConfig{}.
func TestMachineDefaultsAgree(t *testing.T) {
	sc := SysConfig{}.withDefaults()
	if sc.IssueWidth != metrics.DefaultIssueWidth || sc.Tags != metrics.DefaultTags || sc.QueueCap != metrics.DefaultQueueCap {
		t.Fatalf("SysConfig{} resolves to width=%d tags=%d queue=%d", sc.IssueWidth, sc.Tags, sc.QueueCap)
	}
	app := apps.Kernel(apps.ScaleTiny, "dmm")
	opts := compile.Options{EntryArgs: app.Args}
	for _, sys := range []string{SysSeqDF, SysOrdered, SysUnordered, SysTyr} {
		want, err := Run(app, sys, SysConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		var got metrics.RunStats
		switch sys {
		case SysSeqDF:
			res, err := seqdf.Run(app.Prog, app.NewImage(), seqdf.Config{Args: app.Args})
			if err != nil {
				t.Fatal(err)
			}
			got = metrics.RunStats{Cycles: res.Cycles, IPCHist: res.IPCHist, Note: res.Note}
		case SysOrdered:
			g, err := compile.Ordered(app.Prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ordered.Run(g, app.NewImage(), ordered.Config{})
			if err != nil {
				t.Fatal(err)
			}
			got = metrics.RunStats{Cycles: res.Cycles, IPCHist: res.IPCHist, Note: res.Note}
		default:
			g, err := compile.Tagged(app.Prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			policy := core.PolicyGlobalUnlimited
			if sys == SysTyr {
				policy = core.PolicyTyr
			}
			res, err := core.Run(g, app.NewImage(), core.Config{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			got = metrics.RunStats{Cycles: res.Cycles, IPCHist: res.IPCHist, Note: res.Note}
		}
		if got.Cycles != want.Cycles || got.Note != want.Note || !reflect.DeepEqual(got.IPCHist, want.IPCHist) {
			t.Errorf("%s: zero engine Config gives cycles=%d note=%q, SysConfig{} gives cycles=%d note=%q",
				sys, got.Cycles, got.Note, want.Cycles, want.Note)
		}
		// seqdf and ordered name their width in Note; the tagged engines
		// show it only where it binds.
		if _, ok := want.IPCHist[metrics.DefaultIssueWidth]; !ok && (sys == SysUnordered || sys == SysTyr) {
			t.Errorf("%s: no cycle fires %d instructions, so the issue width is untested", sys, metrics.DefaultIssueWidth)
		}
	}
}
