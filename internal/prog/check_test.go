package prog

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func wantCheckError(t *testing.T, p *Program, substr string) {
	t.Helper()
	err := Check(p)
	if err == nil {
		t.Fatalf("Check accepted bad program; want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("Check error = %v, want it to contain %q", err, substr)
	}
}

func TestCheckMissingEntry(t *testing.T) {
	p := NewProgram("noentry", "main")
	p.AddFunc("other", nil, C(0))
	wantCheckError(t, p, `entry function "main" not defined`)
}

func TestCheckUndeclaredRead(t *testing.T) {
	p := NewProgram("undeclared", "main")
	p.AddFunc("main", nil, V("ghost"))
	wantCheckError(t, p, `read of undeclared variable "ghost"`)
}

func TestCheckUndeclaredAssign(t *testing.T) {
	p := NewProgram("badassign", "main")
	p.AddFunc("main", nil, C(0), Set("ghost", C(1)))
	wantCheckError(t, p, `assignment to undeclared variable "ghost"`)
}

func TestCheckRedeclare(t *testing.T) {
	p := NewProgram("redecl", "main")
	p.AddFunc("main", nil, C(0), LetS("x", C(1)), LetS("x", C(2)))
	wantCheckError(t, p, "redeclared")
}

func TestCheckAssignAcrossLoopBoundary(t *testing.T) {
	p := NewProgram("crossloop", "main")
	p.AddFunc("main", nil, V("x"),
		LetS("x", C(0)),
		ForRange("L", "i", C(0), C(3), nil,
			Set("x", Add(V("x"), C(1))), // x not carried on L
		),
	)
	wantCheckError(t, p, "loop boundary")
}

func TestCheckLoopResultAcrossEnclosingLoop(t *testing.T) {
	// Inner loop merge-out targets a variable declared outside the outer
	// loop without carrying it on the outer loop.
	p := NewProgram("crossmerge", "main")
	p.AddFunc("main", nil, V("x"),
		LetS("x", C(0)),
		ForRange("outer", "i", C(0), C(2), nil,
			Loop("inner", []LoopVar{LV("x", V("x")), LV("j", C(0))},
				Lt(V("j"), C(2)),
				Set("x", Add(V("x"), C(1))),
				Set("j", Add(V("j"), C(1))),
			),
		),
	)
	wantCheckError(t, p, "carry it on that loop too")
}

func TestCheckCarriedLoopResultOK(t *testing.T) {
	p := NewProgram("carriedok", "main")
	p.AddFunc("main", nil, V("x"),
		LetS("x", C(0)),
		ForRange("outer", "i", C(0), C(2), []LoopVar{LV("x", V("x"))},
			Loop("inner", []LoopVar{LV("x", V("x")), LV("j", C(0))},
				Lt(V("j"), C(2)),
				Set("x", Add(V("x"), C(1))),
				Set("j", Add(V("j"), C(1))),
			),
		),
	)
	if err := Check(p); err != nil {
		t.Fatalf("Check rejected valid program: %v", err)
	}
	res, _ := runProg(t, p)
	if res.Ret != 4 {
		t.Errorf("got %d, want 4", res.Ret)
	}
}

func TestCheckRecursionRejected(t *testing.T) {
	p := NewProgram("recur", "main")
	p.AddFunc("main", nil, CallE("f", C(3)))
	p.AddFunc("f", []string{"n"}, CallE("f", Sub(V("n"), C(1))))
	wantCheckError(t, p, "recursive call cycle")
}

func TestCheckMutualRecursionRejected(t *testing.T) {
	p := NewProgram("mutual", "main")
	p.AddFunc("main", nil, CallE("f", C(3)))
	p.AddFunc("f", []string{"n"}, CallE("g", V("n")))
	p.AddFunc("g", []string{"n"}, CallE("f", V("n")))
	wantCheckError(t, p, "recursive call cycle")
}

func TestCheckUndefinedCallee(t *testing.T) {
	p := NewProgram("badcall", "main")
	p.AddFunc("main", nil, CallE("nope"))
	wantCheckError(t, p, "undefined")
}

func TestCheckArityMismatch(t *testing.T) {
	p := NewProgram("arity", "main")
	p.AddFunc("f", []string{"a", "b"}, Add(V("a"), V("b")))
	p.AddFunc("main", nil, CallE("f", C(1)))
	wantCheckError(t, p, "1 args, want 2")
}

func TestCheckUndeclaredMem(t *testing.T) {
	p := NewProgram("badmem", "main")
	p.AddFunc("main", nil, Ld("nowhere", C(0)))
	wantCheckError(t, p, `undeclared memory region "nowhere"`)
}

func TestCheckDuplicateMem(t *testing.T) {
	p := NewProgram("dupmem", "main")
	p.DeclareMem("a", 4)
	p.DeclareMem("a", 8)
	p.AddFunc("main", nil, C(0))
	wantCheckError(t, p, "declared twice")
}

func TestCheckDuplicateLoopLabel(t *testing.T) {
	p := NewProgram("duplabel", "main")
	p.AddFunc("main", nil, C(0),
		ForRange("L", "i", C(0), C(1), nil),
		ForRange("L", "j", C(0), C(1), nil),
	)
	wantCheckError(t, p, `duplicate loop label "L"`)
}

func TestCheckDuplicateCarriedVar(t *testing.T) {
	p := NewProgram("dupvar", "main")
	p.AddFunc("main", nil, C(0),
		Loop("L", []LoopVar{LV("x", C(0)), LV("x", C(1))}, C(0)),
	)
	wantCheckError(t, p, `carried variable "x" twice`)
}

func TestCheckBranchLocalLetDies(t *testing.T) {
	p := NewProgram("branchlet", "main")
	p.AddFunc("main", nil, V("t"), // t declared only inside the branch
		When(C(1), LetS("t", C(5))),
	)
	wantCheckError(t, p, `read of undeclared variable "t"`)
}

func TestCallOrderTopological(t *testing.T) {
	p := NewProgram("order", "main")
	p.AddFunc("main", nil, CallE("mid"))
	p.AddFunc("mid", nil, CallE("leaf"))
	p.AddFunc("leaf", nil, C(1))
	order, err := CallOrder(p)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["main"]) {
		t.Errorf("order %v not topological", order)
	}
}

// shadowLoopSource shadows an outer let inside a loop body. Before Check
// rejected shadowing, the map-scoped interpreter leaked the inner x into
// the next iteration (returning 11) while the compiled machines returned 3.
const shadowLoopSource = `program "shadow" entry main

func main() {
  let x = 1
  loop "L" carry (i = 0, acc = 0) while i < 3 {
    let y = x
    let x = 5
    acc = acc + y
    i = i + 1
  }
  return acc
}
`

func TestCheckRejectsShadowing(t *testing.T) {
	cases := []struct {
		name, src, fn, v string
	}{
		{"loop body", shadowLoopSource, "main", "x"},
		{"parameter", `program "shadowparam" entry main
func f(x) {
  loop "L" carry (i = 0, acc = 0) while i < 3 {
    let y = x
    let x = 5
    acc = acc + y
    i = i + 1
  }
  return acc
}
func main() {
  return f(7)
}
`, "f", "x"},
		{"nested loop", `program "shadownest" entry main
func main() {
  loop "outer" carry (i = 0, s = 0) while i < 2 {
    let t = i
    loop "inner" carry (j = 0) while j < 2 {
      let t = j
      j = j + 1
    }
    s = s + t
    i = i + 1
  }
  return s
}
`, "main", "t"},
		{"if branch", `program "shadowif" entry main
func main() {
  let x = 1
  if x > 0 {
    let x = 2
  }
  return x
}
`, "main", "x"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCheckError(t, MustParse(tc.src),
				`func "`+tc.fn+`": let "`+tc.v+`" shadows a variable of an enclosing scope`)
		})
	}
}

// TestCheckAllowsRebindingAndSiblingScopes pins what the shadowing rule
// leaves legal: a carried variable rebinding its outer namesake, and the
// same name declared in scopes that are never visible from each other.
func TestCheckAllowsRebindingAndSiblingScopes(t *testing.T) {
	p := MustParse(`program "rebind" entry main
func main() {
  let x = 1
  loop "L" carry (x = x) while x < 3 {
    x = x + 1
  }
  if x > 0 {
    let t = 1
  } else {
    let t = 2
  }
  let t = x
  return t
}
`)
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultImage(p), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 3 {
		t.Errorf("got %d, want 3", res.Ret)
	}
}

func TestCheckBoundsMemory(t *testing.T) {
	mk := func(sizes ...int) *Program {
		p := &Program{Name: "mem", Entry: "main", Funcs: []*Func{{Name: "main", Ret: Const{V: 0}}}}
		for i, n := range sizes {
			p.Mems = append(p.Mems, MemDecl{Name: fmt.Sprintf("r%d", i), Size: n})
		}
		return p
	}
	for _, sizes := range [][]int{{MaxMemWords}, {MaxMemWords / 2, MaxMemWords / 2}, {0, 25920}} {
		if err := Check(mk(sizes...)); err != nil {
			t.Errorf("regions %v rejected: %v", sizes, err)
		}
	}
	for _, sizes := range [][]int{{4000000000}, {MaxMemWords + 1}, {MaxMemWords / 2, MaxMemWords/2 + 1}, {MaxMemWords, math.MaxInt}} {
		err := Check(mk(sizes...))
		if err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Errorf("regions %v: err = %v, want the memory bound", sizes, err)
		}
	}
}
