package apps

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ordered"
	"repro/internal/prog"
	"repro/internal/seqdf"
	"repro/internal/vn"
)

// TestSuiteOnAllArchitectures is the central integration test: every
// workload of Table II runs on every simulated architecture, and every
// output is validated against the native Go reference.
func TestSuiteOnAllArchitectures(t *testing.T) {
	for _, app := range Suite(ScaleTiny) {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			if err := prog.Check(app.Prog); err != nil {
				t.Fatalf("Check: %v", err)
			}

			// Reference interpreter (vN cost model doubles as oracle).
			imRef := app.NewImage()
			vnRes, err := vn.Run(app.Prog, imRef, vn.Config{Args: app.Args})
			if err != nil {
				t.Fatalf("vn: %v", err)
			}
			if err := app.Check(imRef, vnRes.Ret); err != nil {
				t.Fatalf("vn output: %v", err)
			}

			// Sequential dataflow model.
			imSeq := app.NewImage()
			sdRes, err := seqdf.Run(app.Prog, imSeq, seqdf.Config{Args: app.Args})
			if err != nil {
				t.Fatalf("seqdf: %v", err)
			}
			if err := app.Check(imSeq, sdRes.Ret); err != nil {
				t.Fatalf("seqdf output: %v", err)
			}
			if sdRes.Cycles > vnRes.Cycles {
				t.Errorf("seqdf (%d cycles) slower than vN (%d)", sdRes.Cycles, vnRes.Cycles)
			}

			// Tagged graph: TYR (2 and 64 tags) and naive unordered.
			tg, err := compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
			if err != nil {
				t.Fatalf("Tagged: %v", err)
			}
			for _, tc := range []struct {
				label string
				cfg   core.Config
			}{
				{"tyr2", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 2, CheckInvariants: true}},
				{"tyr64", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 64, CheckInvariants: true}},
				{"unordered", core.Config{Policy: core.PolicyGlobalUnlimited, CheckInvariants: true}},
			} {
				im := app.NewImage()
				res, err := core.Run(tg, im, tc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", tc.label, err)
				}
				if !res.Completed {
					t.Fatalf("%s: %v", tc.label, res.Deadlock)
				}
				if err := app.Check(im, res.ResultValue); err != nil {
					t.Errorf("%s output: %v", tc.label, err)
				}
			}

			// Ordered dataflow.
			og, err := compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
			if err != nil {
				t.Fatalf("Ordered: %v", err)
			}
			imOrd := app.NewImage()
			ores, err := ordered.Run(og, imOrd, ordered.Config{})
			if err != nil {
				t.Fatalf("ordered: %v", err)
			}
			if err := app.Check(imOrd, ores.ResultValue); err != nil {
				t.Errorf("ordered output: %v", err)
			}
		})
	}
}

func TestSuiteShapes(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium} {
		suite := Suite(s)
		if len(suite) != 7 {
			t.Fatalf("scale %v: %d apps, want 7", s, len(suite))
		}
		names := map[string]bool{}
		for _, a := range suite {
			names[a.Name] = true
			if a.Inner == "" || a.Outer == "" {
				t.Errorf("%s: missing Inner/Outer block names", a.Name)
			}
			if a.Image == nil || a.Prog == nil || a.Check == nil {
				t.Errorf("%s: incomplete app", a.Name)
			}
		}
		for _, want := range []string{"dmv", "dmm", "dconv", "smv", "spmspv", "spmspm", "tc"} {
			if !names[want] {
				t.Errorf("scale %v missing %s", s, want)
			}
		}
	}
}

func TestFind(t *testing.T) {
	suite := Suite(ScaleTiny)
	if Find(suite, "dmv") == nil {
		t.Error("Find(dmv) = nil")
	}
	if Find(suite, "nope") != nil {
		t.Error("Find(nope) != nil")
	}
}

func TestNewImageIsolation(t *testing.T) {
	app := Dmv(4, 4, 1)
	im1, im2 := app.NewImage(), app.NewImage()
	if err := im1.Store(0, 0, 12345); err != nil {
		t.Fatal(err)
	}
	if v, _ := im2.Load(0, 0); v == 12345 {
		t.Error("NewImage returns shared state")
	}
}

// TestCheckersRejectWrongOutput guards the oracles themselves.
func TestCheckersRejectWrongOutput(t *testing.T) {
	app := Dmv(4, 4, 1)
	im := app.NewImage()
	if _, err := vn.Run(app.Prog, im, vn.Config{Args: app.Args}); err != nil {
		t.Fatal(err)
	}
	w := im.WordsByName("W")
	w[0]++
	if err := app.Check(im, 0); err == nil {
		t.Error("corrupted output passed Check")
	}
}

// TestKernelSharedTemplate pins the per-process kernel contract: Kernel
// returns one shared *App per (scale, name), nil for an unknown name, and
// the same kernel Suite builds fresh on every call.
func TestKernelSharedTemplate(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall} {
		fresh := Suite(s)
		for i, name := range Names {
			if !Known(name) {
				t.Errorf("Known(%q) = false", name)
			}
			k := Kernel(s, name)
			if k == nil || k.Name != name || fresh[i].Name != name {
				t.Fatalf("scale %v: Kernel(%q) = %v, Suite[%d] = %q", s, name, k, i, fresh[i].Name)
			}
			if Kernel(s, name) != k {
				t.Errorf("scale %v: Kernel(%q) built twice", s, name)
			}
			if fresh[i] == k || Suite(s)[i] == fresh[i] {
				t.Errorf("scale %v: Suite returned a shared %q, want a fresh build", s, name)
			}
			if !k.Image.Equal(fresh[i].Image) || k.Description != fresh[i].Description {
				t.Errorf("scale %v: Kernel(%q) differs from the Suite build", s, name)
			}
		}
	}
	if Known("nope") || Kernel(ScaleTiny, "nope") != nil {
		t.Error("unknown kernel name accepted")
	}
}
