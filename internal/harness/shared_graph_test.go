package harness

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// fixedGraphs is a GraphSource that returns the same pre-compiled graph
// instances on every call: the test double for the serving layer's LRU,
// which hands one *dfg.Graph to any number of concurrent runs.
type fixedGraphs struct {
	tagged  *dfg.Graph
	ordered *dfg.Graph
}

func (f fixedGraphs) Tagged(*apps.App) (*dfg.Graph, error)  { return f.tagged, nil }
func (f fixedGraphs) Ordered(*apps.App) (*dfg.Graph, error) { return f.ordered, nil }

// TestSharedGraphConcurrentRuns is the dynamic complement of the
// graphimmut analyzer. The static pass proves no engine statement writes
// through graph-owned storage, but aliases laundered through local
// variables are out of its scope — so this test compiles each lowering
// exactly once, runs every graph machine several times concurrently on
// the SAME graph instances, and requires each run's digest to match the
// committed goldens (which were recorded from serial, fresh-compile
// runs). Under -race (CI), any engine write to the shared graph is a
// reported race; with or without -race, any cross-run interference
// diverges a digest.
func TestSharedGraphConcurrentRuns(t *testing.T) {
	want := readGoldenDigests(t)
	app := apps.Suite(apps.ScaleTiny)[0]

	tagged, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatalf("compile tagged: %v", err)
	}
	orderedG, err := compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
	if err != nil {
		t.Fatalf("compile ordered: %v", err)
	}
	shared := fixedGraphs{tagged: tagged, ordered: orderedG}

	// Graph machines only: vN and seqdf never touch a *dfg.Graph.
	sliceKeys := map[string]bool{
		"ordered":     true,
		"unordered":   true,
		"tyr/tags=2":  true,
		"tyr/tags=64": true,
	}
	const repeats = 3
	for _, combo := range equivCombos() {
		if !sliceKeys[combo.key] {
			continue
		}
		for r := 0; r < repeats; r++ {
			combo := combo
			t.Run(fmt.Sprintf("%s/run=%d", combo.key, r), func(t *testing.T) {
				t.Parallel()
				rec := trace.NewRecorder(1 << 21)
				cfg := combo.cfg
				cfg.Tracer = rec
				cfg.Compiler = shared
				var im *mem.Image
				cfg.imageSink = &im
				rs, err := Run(app, combo.sys, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", app.Name, combo.key, err)
				}
				key := app.Name + "/" + combo.key
				got := runStatsDigest(rs, im, rec)
				w, ok := want[key]
				if !ok {
					t.Fatalf("%s: no committed golden digest", key)
				}
				if got != w {
					t.Errorf("%s: digest diverged on a shared graph (engine mutated compiled state?)\n  golden: %s\n  got:    %s", key, w, got)
				}
			})
		}
	}
}

// TestSharedKernelConcurrentRuns is the serving-side counterpart for
// workloads: tyrd hands every request the same apps.Kernel template, so
// this test runs all 35 tiny (kernel, system) cells concurrently from the
// shared kernels and requires each to match a serial run on a freshly
// built apps.Suite app, cycle for cycle and fire for fire. Afterwards
// every shared App.Image must still hold its original words. Under -race
// (CI), any write to a shared program or image is a reported race.
func TestSharedKernelConcurrentRuns(t *testing.T) {
	type cell struct{ app, sys string }
	want := map[cell]metrics.RunStats{}
	before := map[string]*mem.Image{}
	for _, app := range apps.Suite(apps.ScaleTiny) {
		before[app.Name] = apps.Kernel(apps.ScaleTiny, app.Name).Image.Clone()
		for _, sys := range Systems {
			rs, err := Run(app, sys, SysConfig{})
			if err != nil {
				t.Fatalf("fresh %s/%s: %v", app.Name, sys, err)
			}
			want[cell{app.Name, sys}] = rs
		}
	}

	t.Run("cells", func(t *testing.T) {
		for c := range want {
			c := c
			t.Run(c.app+"/"+c.sys, func(t *testing.T) {
				t.Parallel()
				rs, err := Run(apps.Kernel(apps.ScaleTiny, c.app), c.sys, SysConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if w := want[c]; rs.Cycles != w.Cycles || rs.Fired != w.Fired {
					t.Errorf("shared kernel: %d cycles, %d fires; fresh build: %d cycles, %d fires",
						rs.Cycles, rs.Fired, w.Cycles, w.Fired)
				}
			})
		}
	})

	for name, im := range before {
		if !apps.Kernel(apps.ScaleTiny, name).Image.Equal(im) {
			t.Errorf("%s: a run wrote to the shared kernel's image", name)
		}
	}
}
