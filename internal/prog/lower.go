package prog

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/mem"
)

// The interpreter does not walk the AST. Run first lowers the checked
// program into a tree whose names are resolved once, in the spirit of a
// compile-once Program.Compile:
//
//   - every parameter, let, carried loop variable and fresh merge-out is
//     a frame-slot index;
//   - memory names are region indices into the run's image;
//   - ordering classes are dense indices into a per-run ready-time table;
//   - callees are function indices.
//
// Names resolve lexically, with the checker's scopes: a function scope
// holding the parameters, one scope per loop holding its carried
// variables and body, and one per if-branch. Check rejects a let that
// shadows a visible name, so the lexical binding of every name is also
// the one the scope chain holds at run time.
//
// Lowering is per Run: programs stay mutable through the builder API and
// the shared kernel templates are read concurrently, so nothing is cached
// on the *Program.

type exprOp uint8

const (
	opConst exprOp = iota
	opVar
	opBin
	opSelect
	opLoad
	opCall
)

// node is a lowered expression.
type node struct {
	op  exprOp
	bin dfg.BinKind
	v   int64 // opConst: the value
	// idx is the frame slot (opVar), the image region (opLoad; -1 when
	// the image lacks it) or the callee's function index (opCall).
	idx   int32
	class int32 // opLoad: ordering class index, or -1
	// a, b, c are the operands: Bin a op b; Select c ? a : b; Load a.
	a, b, c *node
	args    []*node // opCall
	mem     string  // opLoad: region name, for the error when idx < 0
}

type stmtOp uint8

const (
	opLet stmtOp = iota
	opAssign
	opStore
	opIf
	opWhile
	opExpr
)

// step is a lowered statement.
type step struct {
	op     stmtOp
	slot   int32 // opLet, opAssign: the target slot
	region int32 // opStore: image region, or -1
	class  int32 // opStore: ordering class index, or -1
	// e is the value (opLet, opAssign, opExpr, opStore) or the condition
	// (opIf); addr is a store's address.
	e, addr   *node
	then, els *block // opIf
	loop      *loop  // opWhile
	mem       string // opStore: region name, for the error when region < 0
}

// block is the body of one scope: its statements and the slots declared
// directly in it, which are released when the scope is popped.
type block struct {
	steps []step
	slots []int32
}

// loop is a lowered While. Its scope holds the carried variables and the
// body's declarations and lives across all iterations.
type loop struct {
	vars  []int32 // carried slots, in declaration order
	inits []*node
	cond  *node
	body  block
	merge []mergeOut
}

// mergeOut copies a carried variable's final value out of the popped loop
// scope: into an enclosing binding, or into a fresh slot declared in the
// enclosing scope.
type mergeOut struct {
	from, to int32
	fresh    bool
}

// function is a lowered Func. Parameters occupy slots 0..nparams-1.
type function struct {
	nparams int
	nslots  int
	body    block
	ret     *node // nil: the function returns 0
}

// code is a lowered program.
type code struct {
	funcs    []function
	entry    int32 // index of the entry function
	nclasses int
}

// lowerScope is one lexical scope during lowering.
type lowerScope struct {
	names map[string]int32
	blk   *block
}

type lowerer struct {
	p       *Program
	funcs   map[string]int32
	regions map[string]int32
	classes map[string]int32

	nslots int32
	scopes []lowerScope
}

// lower resolves p's names against the image's regions. Errors here are
// the ones Check rejects; the interpreter reports them as run errors.
func lower(p *Program, im *mem.Image) (*code, error) {
	l := &lowerer{
		p:       p,
		funcs:   make(map[string]int32, len(p.Funcs)),
		regions: make(map[string]int32, im.NumRegions()),
		classes: make(map[string]int32),
	}
	for i, f := range p.Funcs {
		if _, dup := l.funcs[f.Name]; !dup {
			l.funcs[f.Name] = int32(i)
		}
	}
	for i := 0; i < im.NumRegions(); i++ {
		l.regions[im.Name(i)] = int32(i)
	}
	c := &code{funcs: make([]function, len(p.Funcs))}
	for i, f := range p.Funcs {
		if err := l.function(f, &c.funcs[i]); err != nil {
			return nil, err
		}
	}
	c.entry = l.funcs[p.Entry]
	c.nclasses = len(l.classes)
	return c, nil
}

func (l *lowerer) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("prog: %s: %s", l.p.Name, fmt.Sprintf(format, args...))
}

func (l *lowerer) function(f *Func, out *function) error {
	l.nslots, l.scopes = 0, l.scopes[:0]
	l.push(&out.body)
	for _, name := range f.Params {
		l.declare(name)
	}
	out.nparams = len(f.Params)
	if err := l.stmts(f.Body, &out.body); err != nil {
		return err
	}
	if f.Ret != nil {
		r, err := l.expr(f.Ret)
		if err != nil {
			return err
		}
		out.ret = r
	}
	out.nslots = int(l.nslots)
	return nil
}

func (l *lowerer) push(b *block) {
	l.scopes = append(l.scopes, lowerScope{names: make(map[string]int32), blk: b})
}

func (l *lowerer) pop() { l.scopes = l.scopes[:len(l.scopes)-1] }

// declare binds name in the innermost scope. A redeclaration in the same
// scope (which Check rejects) reuses the slot, as a rebinding would.
func (l *lowerer) declare(name string) int32 {
	top := &l.scopes[len(l.scopes)-1]
	if s, ok := top.names[name]; ok {
		return s
	}
	s := l.nslots
	l.nslots++
	top.names[name] = s
	top.blk.slots = append(top.blk.slots, s)
	return s
}

// lookup resolves name to its innermost visible slot.
func (l *lowerer) lookup(name string) (int32, bool) {
	for i := len(l.scopes) - 1; i >= 0; i-- {
		if s, ok := l.scopes[i].names[name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (l *lowerer) region(name string) int32 {
	if r, ok := l.regions[name]; ok {
		return r
	}
	return -1
}

func (l *lowerer) class(name string) int32 {
	if name == "" {
		return -1
	}
	c, ok := l.classes[name]
	if !ok {
		c = int32(len(l.classes))
		l.classes[name] = c
	}
	return c
}

func (l *lowerer) stmts(stmts []Stmt, b *block) error {
	b.steps = make([]step, 0, len(stmts))
	for _, s := range stmts {
		st, err := l.stmt(s)
		if err != nil {
			return err
		}
		b.steps = append(b.steps, st)
	}
	return nil
}

// scoped lowers stmts into a fresh block in a new scope.
func (l *lowerer) scoped(stmts []Stmt) (*block, error) {
	b := &block{}
	l.push(b)
	defer l.pop()
	return b, l.stmts(stmts, b)
}

func (l *lowerer) stmt(s Stmt) (step, error) {
	switch st := s.(type) {
	case Let:
		e, err := l.expr(st.E)
		return step{op: opLet, e: e, slot: l.declare(st.Name)}, err
	case Assign:
		e, err := l.expr(st.E)
		if err != nil {
			return step{}, err
		}
		slot, ok := l.lookup(st.Name)
		if !ok {
			return step{}, l.errorf("assign to undeclared %q (checker should have caught this)", st.Name)
		}
		return step{op: opAssign, e: e, slot: slot}, nil
	case StoreStmt:
		addr, err := l.expr(st.Addr)
		if err != nil {
			return step{}, err
		}
		val, err := l.expr(st.Val)
		return step{op: opStore, addr: addr, e: val, region: l.region(st.Mem), class: l.class(st.Class), mem: st.Mem}, err
	case If:
		cond, err := l.expr(st.Cond)
		if err != nil {
			return step{}, err
		}
		then, err := l.scoped(st.Then)
		if err != nil {
			return step{}, err
		}
		els, err := l.scoped(st.Else)
		return step{op: opIf, e: cond, then: then, els: els}, err
	case While:
		lp, err := l.while(st)
		return step{op: opWhile, loop: lp}, err
	case ExprStmt:
		e, err := l.expr(st.E)
		return step{op: opExpr, e: e}, err
	}
	return step{}, l.errorf("unknown statement %T", s)
}

func (l *lowerer) while(st While) (*loop, error) {
	lp := &loop{inits: make([]*node, len(st.Vars))}
	for i, v := range st.Vars {
		e, err := l.expr(v.Init) // evaluated in the enclosing scope
		if err != nil {
			return nil, err
		}
		lp.inits[i] = e
	}
	l.push(&lp.body)
	for _, v := range st.Vars {
		lp.vars = append(lp.vars, l.declare(v.Name))
	}
	cond, err := l.expr(st.Cond)
	if err == nil {
		lp.cond = cond
		err = l.stmts(st.Body, &lp.body)
	}
	l.pop()
	if err != nil {
		return nil, err
	}
	for i, v := range st.Vars {
		m := mergeOut{from: lp.vars[i]}
		if to, ok := l.lookup(v.Name); ok {
			m.to = to
		} else {
			m.to, m.fresh = l.declare(v.Name), true
		}
		lp.merge = append(lp.merge, m)
	}
	return lp, nil
}

func (l *lowerer) expr(e Expr) (*node, error) {
	switch ex := e.(type) {
	case Const:
		return &node{op: opConst, v: ex.V}, nil
	case Var:
		slot, ok := l.lookup(ex.Name)
		if !ok {
			return nil, l.errorf("read of undeclared %q (checker should have caught this)", ex.Name)
		}
		return &node{op: opVar, idx: slot}, nil
	case Bin:
		a, err := l.expr(ex.A)
		if err != nil {
			return nil, err
		}
		b, err := l.expr(ex.B)
		return &node{op: opBin, bin: ex.Op, a: a, b: b}, err
	case Select:
		c, err := l.expr(ex.Cond)
		if err != nil {
			return nil, err
		}
		a, err := l.expr(ex.Then)
		if err != nil {
			return nil, err
		}
		b, err := l.expr(ex.Else)
		return &node{op: opSelect, c: c, a: a, b: b}, err
	case Load:
		a, err := l.expr(ex.Addr)
		return &node{op: opLoad, a: a, idx: l.region(ex.Mem), class: l.class(ex.Class), mem: ex.Mem}, err
	case Call:
		fi, ok := l.funcs[ex.Fn]
		if !ok {
			return nil, l.errorf("call to unknown %q", ex.Fn)
		}
		if want := len(l.p.Funcs[fi].Params); want != len(ex.Args) {
			return nil, l.errorf("call to %q with %d args, want %d", ex.Fn, len(ex.Args), want)
		}
		n := &node{op: opCall, idx: fi, args: make([]*node, len(ex.Args))}
		for i, a := range ex.Args {
			arg, err := l.expr(a)
			if err != nil {
				return nil, err
			}
			n.args[i] = arg
		}
		return n, nil
	}
	return nil, l.errorf("unknown expression %T", e)
}
