package vn

import (
	"testing"

	"repro/internal/prog"
)

func sumProgram(n int64) *prog.Program {
	p := prog.NewProgram("sum", "main")
	p.AddFunc("main", nil, prog.V("sum"),
		prog.ForRange("L", "i", prog.C(0), prog.C(n), []prog.LoopVar{prog.LV("sum", prog.C(0))},
			prog.Set("sum", prog.Add(prog.V("sum"), prog.V("i"))),
		),
	)
	return p
}

func TestVNCyclesEqualInstructions(t *testing.T) {
	p := sumProgram(50)
	if err := prog.Check(p); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, prog.DefaultImage(p), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != res.Fired {
		t.Errorf("cycles %d != instructions %d", res.Cycles, res.Fired)
	}
	if res.Cycles != res.Stats.DynInstrs {
		t.Errorf("cycles %d != interpreter count %d", res.Cycles, res.Stats.DynInstrs)
	}
	if res.IPC() != 1 {
		t.Errorf("IPC = %f, want exactly 1", res.IPC())
	}
	if res.Ret != 49*50/2 {
		t.Errorf("ret = %d", res.Ret)
	}
}

func TestVNIPCHistIsAllOnes(t *testing.T) {
	p := sumProgram(20)
	res, err := Run(p, prog.DefaultImage(p), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPCHist) != 1 || res.IPCHist[1] != res.Cycles {
		t.Errorf("IPCHist = %v", res.IPCHist)
	}
}

func TestVNLiveStateStaysSmall(t *testing.T) {
	// vN live state is live bindings + call depth: independent of trip
	// count (the whole point of the depth-first traversal).
	small, err := Run(sumProgram(10), prog.DefaultImage(sumProgram(10)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(sumProgram(1000), prog.DefaultImage(sumProgram(1000)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if big.PeakLive != small.PeakLive {
		t.Errorf("peak live grew with trip count: %d vs %d", small.PeakLive, big.PeakLive)
	}
	if big.PeakLive > 16 {
		t.Errorf("peak live %d implausibly large for vN", big.PeakLive)
	}
	if big.MeanLive <= 0 {
		t.Errorf("mean live %f", big.MeanLive)
	}
}

func TestVNTraceMonotone(t *testing.T) {
	res, err := Run(sumProgram(500), prog.DefaultImage(sumProgram(500)), Config{TracePoints: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 || len(res.Trace) > 64 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Cycle < res.Trace[i-1].Cycle {
			t.Fatal("trace cycles not monotone")
		}
	}
}

func TestVNPropagatesErrors(t *testing.T) {
	p := prog.NewProgram("bad", "main")
	p.AddFunc("main", nil, prog.Div(prog.C(1), prog.C(0)))
	if err := prog.Check(p); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, prog.DefaultImage(p), Config{}); err == nil {
		t.Error("division by zero not propagated")
	}
}

func TestVNCallDepthCounted(t *testing.T) {
	p := prog.NewProgram("deep", "main")
	p.AddFunc("leaf", []string{"x"}, prog.Add(prog.V("x"), prog.C(1)))
	p.AddFunc("mid", []string{"x"}, prog.CallE("leaf", prog.V("x")))
	p.AddFunc("main", nil, prog.CallE("mid", prog.C(0)))
	if err := prog.Check(p); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, prog.DefaultImage(p), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxCallDepth != 3 {
		t.Errorf("depth = %d, want 3", res.Stats.MaxCallDepth)
	}
	if res.Ret != 1 {
		t.Errorf("ret = %d", res.Ret)
	}
}

// steadySource exercises every interpreter path the medium kernels use:
// calls, classed loads and stores, a select, an if with a scoped let, a
// nested loop whose carried variable merges out fresh, and lets in a loop
// body that persist across iterations.
const steadySource = `program "steady" entry main
mem a[16]

func step(x, y) {
  let t = x * 3 + y
  if t % 2 == 0 {
    let u = t / 2
    store@w a[t % 16] = u
  } else {
    store@w a[t % 16] = t
  }
  return select(t > 100, t - 100, t)
}

func main(n) {
  loop "outer" carry (i = 0, acc = 0) while i < n {
    let v = a[i % 16]@w
    acc = acc + step(i, v)
    loop "inner" carry (j = 0) while j < 2 {
      j = j + 1
    }
    i = i + j - 1
  }
  return acc
}
`

// TestInterpSteadyStateAllocFree pins that no dynamic instruction of the
// interpreter allocates: a run's allocations (lowering, frame stack, the
// result) do not depend on how many instructions it executes.
func TestInterpSteadyStateAllocFree(t *testing.T) {
	p := prog.MustParse(steadySource)
	if err := prog.Check(p); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int64) float64 {
		im := prog.DefaultImage(p)
		cfg := Config{Args: []int64{n}, TracePoints: -1}
		if _, err := Run(p, im, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(p, im, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(16), allocs(4096)
	if short != long {
		t.Fatalf("allocations grow with trip count: %v at 16 iterations, %v at 4096", short, long)
	}
	t.Logf("%v allocations per run at both trip counts", short)
}
