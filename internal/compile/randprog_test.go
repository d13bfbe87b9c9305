package compile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/ordered"
	"repro/internal/prog"
)

// Random-program differential testing: generate structured programs with
// nested loops, branches, calls, selects, and (class-ordered) memory
// traffic; run them through the reference interpreter, TYR at minimal and
// ample tag budgets, naive unordered dataflow, and ordered dataflow; and
// require identical results and final memory everywhere, with the free
// barrier invariant checks enabled.
//
// All mutable memory traffic shares one ordering class so the reference
// (program-order) semantics are the unique correct answer; a second
// read-only region exercises unordered loads.

type progGen struct {
	rng     *rand.Rand
	nextVar int
	nesting int
	// stmts emitted so far, used to bound program size
	budget int
}

const (
	roSize = 32
	rwSize = 32
)

func (g *progGen) fresh() string {
	g.nextVar++
	return fmt.Sprintf("v%d", g.nextVar)
}

// expr generates an expression reading only the given variables.
func (g *progGen) expr(vars []string, depth int) prog.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch {
		case len(vars) > 0 && g.rng.Intn(2) == 0:
			return prog.V(vars[g.rng.Intn(len(vars))])
		default:
			return prog.C(int64(g.rng.Intn(21) - 10))
		}
	}
	switch g.rng.Intn(8) {
	case 0:
		return prog.Add(g.expr(vars, depth-1), g.expr(vars, depth-1))
	case 1:
		return prog.Sub(g.expr(vars, depth-1), g.expr(vars, depth-1))
	case 2:
		return prog.Mul(g.expr(vars, depth-1), g.expr(vars, depth-1))
	case 3:
		return prog.B(cmpKinds[g.rng.Intn(len(cmpKinds))], g.expr(vars, depth-1), g.expr(vars, depth-1))
	case 4:
		return prog.Sel(g.expr(vars, depth-1), g.expr(vars, depth-1), g.expr(vars, depth-1))
	case 5:
		// Read-only region, classless load, address masked in bounds.
		return prog.Ld("ro", prog.And(g.expr(vars, depth-1), prog.C(roSize-1)))
	case 6:
		// Mutable region, class-ordered load.
		return prog.LdClass("rw", prog.And(g.expr(vars, depth-1), prog.C(rwSize-1)), "m")
	default:
		// Constant divisor, never zero.
		return prog.Div(g.expr(vars, depth-1), prog.C(int64(g.rng.Intn(5)+1)))
	}
}

var cmpKinds = []dfg.BinKind{
	dfg.BinLt, dfg.BinLe, dfg.BinGt, dfg.BinGe, dfg.BinEq, dfg.BinNe,
	dfg.BinMin, dfg.BinMax, dfg.BinAnd, dfg.BinOr, dfg.BinXor,
}

// stmts generates a statement list. writable lists variables legal to
// Assign (the innermost loop's carried variables plus same-frame Lets).
func (g *progGen) stmts(vars, writable []string, depth int) ([]prog.Stmt, []string, []string) {
	n := 1 + g.rng.Intn(3)
	var out []prog.Stmt
	for i := 0; i < n && g.budget > 0; i++ {
		g.budget--
		switch g.rng.Intn(6) {
		case 0, 1: // Let
			name := g.fresh()
			out = append(out, prog.LetS(name, g.expr(vars, 2)))
			vars = append(vars, name)
			writable = append(writable, name)
		case 2: // Assign
			if len(writable) == 0 {
				continue
			}
			out = append(out, prog.Set(writable[g.rng.Intn(len(writable))], g.expr(vars, 2)))
		case 3: // Store (class-ordered)
			out = append(out, prog.StClass("rw",
				prog.And(g.expr(vars, 1), prog.C(rwSize-1)),
				g.expr(vars, 2), "m"))
		case 4: // If
			if depth <= 0 {
				continue
			}
			thenS, _, _ := g.stmts(vars, writable, depth-1)
			var elseS []prog.Stmt
			if g.rng.Intn(2) == 0 {
				elseS, _, _ = g.stmts(vars, writable, depth-1)
			}
			out = append(out, prog.IfS(g.expr(vars, 2), thenS, elseS))
		case 5: // bounded loop
			if depth <= 0 || g.nesting >= 3 {
				continue
			}
			g.nesting++
			idx := g.fresh()
			acc := g.fresh()
			label := fmt.Sprintf("L%d", g.nextVar)
			loopVars := []prog.LoopVar{prog.LV(acc, g.expr(vars, 1))}
			innerVars := append(append([]string{}, vars...), idx, acc)
			body, _, _ := g.stmts(innerVars, []string{acc}, depth-1)
			out = append(out, prog.ForRange(label, idx,
				prog.C(0), prog.C(int64(1+g.rng.Intn(4))), loopVars, body...))
			g.nesting--
			// After the loop, acc is visible with its final value.
			vars = append(vars, acc)
			writable = append(writable, acc)
		}
	}
	return out, vars, writable
}

// generate builds a random program with a helper function called from the
// entry.
func generate(seed int64) *prog.Program {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), budget: 40}
	p := prog.NewProgram(fmt.Sprintf("rand%d", seed), "main")
	p.DeclareMem("ro", roSize)
	p.DeclareMem("rw", rwSize)

	// A helper with its own loop and memory traffic.
	hBody, hVars, _ := g.stmts([]string{"a", "b"}, nil, 2)
	p.AddFunc("helper", []string{"a", "b"}, g.expr(hVars, 2), hBody...)

	body, vars, _ := g.stmts(nil, nil, 3)
	// Ensure at least one call so the function-block linkage is always
	// exercised.
	callRes := g.fresh()
	body = append(body, prog.LetS(callRes, prog.CallE("helper", g.expr(vars, 1), g.expr(vars, 1))))
	vars = append(vars, callRes)
	p.AddFunc("main", nil, g.expr(vars, 2), body...)
	return p
}

func TestRandomProgramDifferential(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkRandomProgram(t, seed)
		})
	}
}

// FuzzRandomProgramDifferential searches seeds beyond the test's fixed
// 150 for a generated program on which some engine disagrees with the
// reference interpreter.
func FuzzRandomProgramDifferential(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkRandomProgram)
}

// checkRandomProgram generates the program for seed and requires every
// engine, and the optimized program on TYR, to reproduce the reference
// interpreter's result and final memory exactly.
func checkRandomProgram(t *testing.T, seed int64) {
	p := generate(seed)
	if err := prog.Check(p); err != nil {
		t.Fatalf("generated program fails Check (generator bug): %v", err)
	}

	// Concrete-syntax round trip: every generated program must
	// survive Format -> Parse unchanged.
	reparsed, err := prog.Parse(prog.Format(p))
	if err != nil {
		t.Fatalf("Parse(Format(p)): %v", err)
	}
	if prog.Format(reparsed) != prog.Format(p) {
		t.Fatal("Format/Parse round trip changed the program")
	}
	p = reparsed // run everything below on the reparsed program

	mkImage := func() *mem.Image {
		im := prog.DefaultImage(p)
		rng := rand.New(rand.NewSource(seed + 1000))
		ro := make([]int64, roSize)
		for i := range ro {
			ro[i] = int64(rng.Intn(41) - 20)
		}
		im.SetRegion("ro", ro)
		return im
	}

	ref := mkImage()
	refRes, err := prog.Run(p, ref, prog.RunConfig{MaxSteps: 1 << 22})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	tg, err := Tagged(p, Options{})
	if err != nil {
		t.Fatalf("Tagged: %v", err)
	}
	mustVet(t, tg, p)
	for _, cfg := range []struct {
		label string
		c     core.Config
	}{
		{"tyr-2", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 2, CheckInvariants: true, Sanitize: true}},
		{"tyr-64", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 64, CheckInvariants: true}},
		{"tyr-2-w1", core.Config{Policy: core.PolicyTyr, TagsPerBlock: 2, IssueWidth: 1, CheckInvariants: true}},
		{"unordered", core.Config{Policy: core.PolicyGlobalUnlimited, CheckInvariants: true}},
	} {
		im := mkImage()
		res, err := core.Run(tg, im, cfg.c)
		if err != nil {
			t.Fatalf("%s: %v", cfg.label, err)
		}
		if !res.Completed {
			t.Fatalf("%s: %v", cfg.label, res.Deadlock)
		}
		if res.ResultValue != refRes.Ret {
			t.Errorf("%s: result %d, want %d", cfg.label, res.ResultValue, refRes.Ret)
		}
		if !im.Equal(ref) {
			t.Errorf("%s: memory diverged: %v", cfg.label, im.Diff(ref, 3))
		}
	}

	og, err := Ordered(p, Options{})
	if err != nil {
		t.Fatalf("Ordered: %v", err)
	}
	mustVet(t, og, p)
	im := mkImage()
	ores, err := ordered.Run(og, im, ordered.Config{})
	if err != nil {
		t.Fatalf("ordered: %v", err)
	}
	if ores.ResultValue != refRes.Ret {
		t.Errorf("ordered: result %d, want %d", ores.ResultValue, refRes.Ret)
	}
	if !im.Equal(ref) {
		t.Errorf("ordered: memory diverged: %v", im.Diff(ref, 3))
	}

	// The optimizer must preserve semantics end to end: the
	// optimized program, compiled and run on TYR, matches the
	// unoptimized reference.
	opt := prog.Optimize(p)
	if err := prog.Check(opt); err != nil {
		t.Fatalf("optimized program fails Check: %v", err)
	}
	otg, err := Tagged(opt, Options{})
	if err != nil {
		t.Fatalf("Tagged(optimized): %v", err)
	}
	mustVet(t, otg, opt)
	imOpt := mkImage()
	optRes, err := core.Run(otg, imOpt, core.Config{
		Policy: core.PolicyTyr, TagsPerBlock: 2, CheckInvariants: true, Sanitize: true,
	})
	if err != nil {
		t.Fatalf("tyr(optimized): %v", err)
	}
	if !optRes.Completed {
		t.Fatalf("tyr(optimized): %v", optRes.Deadlock)
	}
	if optRes.ResultValue != refRes.Ret {
		t.Errorf("tyr(optimized): result %d, want %d", optRes.ResultValue, refRes.Ret)
	}
	if !imOpt.Equal(ref) {
		t.Errorf("tyr(optimized): memory diverged: %v", imOpt.Diff(ref, 3))
	}
}
