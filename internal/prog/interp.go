package prog

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/dfg"
	"repro/internal/mem"
)

// InstrClass categorizes dynamic instructions for cost models.
type InstrClass uint8

const (
	ClassALU InstrClass = iota
	ClassSelect
	ClassLoad
	ClassStore
	ClassBranch
	ClassCall
)

func (c InstrClass) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassSelect:
		return "select"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassCall:
		return "call"
	}
	return "?"
}

// BoundaryKind categorizes the block boundaries reported to cost models.
// Loop iterations and call entries/returns are the paper's concurrent-block
// boundaries — the points where sequential-dataflow architectures advance
// their wave number.
type BoundaryKind uint8

const (
	BoundaryLoopEnter BoundaryKind = iota
	BoundaryLoopIter
	BoundaryLoopExit
	BoundaryCallEnter
	BoundaryCallExit
)

// CostModel observes the dynamic execution of the reference interpreter.
// Instr is called once per dynamic instruction with the latest ready time
// of its operands (including the controlling branch and the ordering
// class) and returns the ready time of the result; Boundary is called at
// concurrent-block boundaries with the number of live variable bindings.
// Implementations provide the von Neumann and sequential-dataflow timing
// models (internal/vn, internal/seqdf).
type CostModel interface {
	Instr(class InstrClass, ready int64) int64
	Boundary(kind BoundaryKind, live int)
}

// MemModel is an optional CostModel extension. A cost model implementing
// it also receives the (region, word address) of every load and store,
// immediately before the corresponding Instr call, so memory-hierarchy
// timing models can charge address-dependent latencies (internal/vn and
// internal/seqdf use this to route accesses through internal/cache).
type MemModel interface {
	Mem(kind mem.AccessKind, region int, addr int64)
}

// nopModel is used when no cost model is attached.
type nopModel struct{}

func (nopModel) Instr(InstrClass, int64) int64 { return 0 }
func (nopModel) Boundary(BoundaryKind, int)    {}

// Stats aggregates dynamic execution counts.
type Stats struct {
	DynInstrs int64
	ALU       int64
	Selects   int64
	Loads     int64
	Stores    int64
	Branches  int64
	Calls     int64
	LoopIters int64

	MaxLiveVars  int
	MaxCallDepth int
}

// RunConfig parameterizes one interpreter run.
type RunConfig struct {
	Args     []int64   // entry function arguments
	MaxSteps int64     // dynamic instruction budget; 0 means a large default
	Model    CostModel // optional cost model
	// Stop, when non-nil, is polled at every dynamic instruction (the
	// interpreter's cycle boundary); once stopped the run returns
	// cancel.ErrStopped promptly. Nil changes nothing.
	Stop *cancel.Flag
}

// Result reports the outcome of a run.
type Result struct {
	Ret   int64
	Stats Stats
}

// DefaultImage builds a memory image with the program's declared regions at
// their default sizes.
func DefaultImage(p *Program) *mem.Image {
	im := mem.NewImage()
	for _, m := range p.Mems {
		im.AddRegion(m.Name, m.Size)
	}
	return im
}

const defaultMaxSteps = int64(1) << 40

// Run interprets the program against the given memory image (mutated in
// place), returning the entry function's result and execution statistics.
// The program must have passed Check.
func Run(p *Program, im *mem.Image, cfg RunConfig) (Result, error) {
	entry := p.EntryFunc()
	if entry == nil {
		return Result{}, fmt.Errorf("prog: %s: missing entry %q", p.Name, p.Entry)
	}
	if len(cfg.Args) != len(entry.Params) {
		return Result{}, fmt.Errorf("prog: %s: entry %q takes %d args, got %d",
			p.Name, p.Entry, len(entry.Params), len(cfg.Args))
	}
	c, err := lower(p, im)
	if err != nil {
		return Result{}, err
	}
	it := &interp{
		p:          p,
		code:       c,
		im:         im,
		cm:         cfg.Model,
		maxSteps:   cfg.MaxSteps,
		stop:       cfg.Stop,
		classReady: make([]int64, c.nclasses),
	}
	if it.cm == nil {
		it.cm = nopModel{}
	}
	it.mm, _ = it.cm.(MemModel)
	if it.maxSteps == 0 {
		it.maxSteps = defaultMaxSteps
	}

	f := &c.funcs[c.entry]
	base := it.reserve(f)
	for i, v := range cfg.Args {
		it.stack[base+i] = binding{val: v}
	}
	ret, _, err := it.call(f, base, 0)
	if err != nil {
		return Result{Stats: it.stats}, err
	}
	return Result{Ret: ret, Stats: it.stats}, nil
}

type binding struct {
	val   int64
	ready int64
}

type interp struct {
	p        *Program
	code     *code
	im       *mem.Image
	cm       CostModel
	mm       MemModel // non-nil when cm also implements MemModel
	maxSteps int64
	stop     *cancel.Flag
	stats    Stats

	// stack holds the frames of the active calls; fp is the current
	// frame's base and top the first free slot. declared marks the slots
	// whose binding is live.
	stack    []binding
	declared []bool
	fp, top  int
	liveVars int
	depth    int

	// classReady tracks the ready time of each memory ordering class's
	// token (classes serialize all of their accesses).
	classReady []int64

	// ctrl is the ready time of the controlling branch decision; every
	// instruction's result is at least this late (steer dependence).
	ctrl int64
}

func (it *interp) runErr(format string, args ...interface{}) error {
	return fmt.Errorf("prog: %s: %s", it.p.Name, fmt.Sprintf(format, args...))
}

// count charges one dynamic instruction, enforces the step budget, and
// polls the cancel flag — the interpreter's per-instruction cycle
// boundary (vN and seqdf delegate their cancellation to this poll).
//
//tyr:cycleloop
//tyr:hotpath
func (it *interp) count(class InstrClass) error {
	it.stats.DynInstrs++
	switch class {
	case ClassALU:
		it.stats.ALU++
	case ClassSelect:
		it.stats.Selects++
	case ClassLoad:
		it.stats.Loads++
	case ClassStore:
		it.stats.Stores++
	case ClassBranch:
		it.stats.Branches++
	case ClassCall:
		it.stats.Calls++
	}
	if it.stats.DynInstrs > it.maxSteps {
		return it.runErr("exceeded dynamic instruction budget %d (runaway loop?)", it.maxSteps)
	}
	if it.stop.Stopped() {
		return fmt.Errorf("prog: %s: run stopped after %d instructions: %w",
			it.p.Name, it.stats.DynInstrs, cancel.ErrStopped)
	}
	return nil
}

// reserve claims a frame for f on top of the stack and returns its base.
//
//tyr:hotpath
func (it *interp) reserve(f *function) int {
	base := it.top
	it.top += f.nslots
	if it.top > len(it.stack) {
		it.grow()
	}
	return base
}

// grow extends the frame stack to hold top slots. Frames are reused once
// the deepest call chain has run, so this is not steady-state work.
func (it *interp) grow() {
	n := max(2*len(it.stack), it.top, 64)
	it.stack = append(it.stack, make([]binding, n-len(it.stack))...)
	it.declared = append(it.declared, make([]bool, n-len(it.declared))...)
}

// declare binds slot in the current frame. A slot counts as live once per
// activation of its scope: a loop body's declarations are counted in the
// first iteration and rebound in the later ones.
//
//tyr:hotpath
func (it *interp) declare(slot int32, b binding) {
	i := it.fp + int(slot)
	if !it.declared[i] {
		it.declared[i] = true
		it.liveVars++
		if it.liveVars+it.depth > it.stats.MaxLiveVars {
			it.stats.MaxLiveVars = it.liveVars + it.depth
		}
	}
	it.stack[i] = b
}

// popScope releases a scope's declared slots.
//
//tyr:hotpath
func (it *interp) popScope(b *block) {
	for _, s := range b.slots {
		i := it.fp + int(s)
		if it.declared[i] {
			it.declared[i] = false
			it.liveVars--
		}
	}
}

// call runs f in the frame at base, whose parameter slots hold the
// argument values.
func (it *interp) call(f *function, base int, callReady int64) (int64, int64, error) {
	it.depth++
	if it.depth > it.stats.MaxCallDepth {
		it.stats.MaxCallDepth = it.depth
	}
	savedFP := it.fp
	it.fp = base
	for i := 0; i < f.nparams; i++ {
		b := it.stack[base+i]
		b.ready = max(b.ready, callReady)
		it.declare(int32(i), b)
	}
	savedCtrl := it.ctrl
	it.ctrl = max(it.ctrl, callReady)
	it.cm.Boundary(BoundaryCallEnter, it.liveVars)

	if err := it.stmts(f.body.steps); err != nil {
		return 0, 0, err
	}
	var ret, ready int64
	if f.ret != nil {
		v, r, err := it.expr(f.ret)
		if err != nil {
			return 0, 0, err
		}
		ret, ready = v, r
	}
	it.cm.Boundary(BoundaryCallExit, it.liveVars)
	it.popScope(&f.body)
	it.depth--
	it.ctrl = savedCtrl
	it.fp, it.top = savedFP, base
	return ret, ready, nil
}

func (it *interp) stmts(steps []step) error {
	for i := range steps {
		if err := it.stmt(&steps[i]); err != nil {
			return err
		}
	}
	return nil
}

//tyr:hotpath
func (it *interp) stmt(s *step) error {
	switch s.op {
	case opLet:
		v, r, err := it.expr(s.e)
		if err != nil {
			return err
		}
		it.declare(s.slot, binding{val: v, ready: r})
		return nil
	case opAssign:
		v, r, err := it.expr(s.e)
		if err != nil {
			return err
		}
		it.stack[it.fp+int(s.slot)] = binding{val: v, ready: r}
		return nil
	case opStore:
		addr, ra, err := it.expr(s.addr)
		if err != nil {
			return err
		}
		val, rv, err := it.expr(s.e)
		if err != nil {
			return err
		}
		if err := it.count(ClassStore); err != nil {
			return err
		}
		if s.region < 0 {
			return it.runErr("store to unknown region %q", s.mem)
		}
		if it.mm != nil {
			it.mm.Mem(mem.AccessStore, int(s.region), addr)
		}
		ready := max(ra, rv, it.ctrl)
		if s.class >= 0 {
			ready = max(ready, it.classReady[s.class])
		}
		done := it.cm.Instr(ClassStore, ready)
		if s.class >= 0 {
			it.classReady[s.class] = done
		}
		return it.im.Store(int(s.region), addr, val)
	case opIf:
		return it.ifStmt(s)
	case opWhile:
		return it.while(s.loop)
	case opExpr:
		_, _, err := it.expr(s.e)
		return err
	}
	return it.runErr("unknown statement op %d", s.op)
}

func (it *interp) ifStmt(s *step) error {
	c, rc, err := it.expr(s.e)
	if err != nil {
		return err
	}
	if err := it.count(ClassBranch); err != nil {
		return err
	}
	steered := it.cm.Instr(ClassBranch, max(rc, it.ctrl))
	savedCtrl := it.ctrl
	it.ctrl = max(it.ctrl, steered)
	b := s.els
	if c != 0 {
		b = s.then
	}
	err = it.stmts(b.steps)
	it.popScope(b)
	it.ctrl = savedCtrl
	return err
}

func (it *interp) while(l *loop) error {
	// Initial values are evaluated in the enclosing scope, straight into
	// the carried slots: no init can see them, since they are not yet
	// declared.
	for i, init := range l.inits {
		v, r, err := it.expr(init)
		if err != nil {
			return err
		}
		it.stack[it.fp+int(l.vars[i])] = binding{val: v, ready: r}
	}
	for _, s := range l.vars {
		it.declare(s, it.stack[it.fp+int(s)])
	}
	it.cm.Boundary(BoundaryLoopEnter, it.liveVars)
	savedCtrl := it.ctrl
	for {
		c, rc, err := it.expr(l.cond)
		if err != nil {
			return err
		}
		if err := it.count(ClassBranch); err != nil {
			return err
		}
		steered := it.cm.Instr(ClassBranch, max(rc, it.ctrl))
		it.ctrl = max(it.ctrl, steered)
		if c == 0 {
			break
		}
		it.stats.LoopIters++
		if err := it.stmts(l.body.steps); err != nil {
			return err
		}
		it.cm.Boundary(BoundaryLoopIter, it.liveVars)
	}
	it.cm.Boundary(BoundaryLoopExit, it.liveVars)
	it.popScope(&l.body)
	it.ctrl = savedCtrl
	// Merge-out, after the loop scope is popped: write each carried
	// variable to its enclosing binding, or declare it fresh in the
	// current scope.
	for _, m := range l.merge {
		b := it.stack[it.fp+int(m.from)]
		if m.fresh {
			it.declare(m.to, b)
		} else {
			it.stack[it.fp+int(m.to)] = b
		}
	}
	return nil
}

//tyr:hotpath
func (it *interp) expr(n *node) (int64, int64, error) {
	switch n.op {
	case opConst:
		return n.v, it.ctrl, nil
	case opVar:
		b := it.stack[it.fp+int(n.idx)]
		return b.val, max(b.ready, it.ctrl), nil
	case opBin:
		a, ra, err := it.expr(n.a)
		if err != nil {
			return 0, 0, err
		}
		b, rb, err := it.expr(n.b)
		if err != nil {
			return 0, 0, err
		}
		if err := it.count(ClassALU); err != nil {
			return 0, 0, err
		}
		v, err := dfg.EvalBin(n.bin, a, b)
		if err != nil {
			return 0, 0, err
		}
		return v, it.cm.Instr(ClassALU, max(ra, rb, it.ctrl)), nil
	case opSelect:
		c, rc, err := it.expr(n.c)
		if err != nil {
			return 0, 0, err
		}
		t, rt, err := it.expr(n.a)
		if err != nil {
			return 0, 0, err
		}
		f, rf, err := it.expr(n.b)
		if err != nil {
			return 0, 0, err
		}
		if err := it.count(ClassSelect); err != nil {
			return 0, 0, err
		}
		v := f
		if c != 0 {
			v = t
		}
		return v, it.cm.Instr(ClassSelect, max(rc, rt, rf, it.ctrl)), nil
	case opLoad:
		addr, ra, err := it.expr(n.a)
		if err != nil {
			return 0, 0, err
		}
		if err := it.count(ClassLoad); err != nil {
			return 0, 0, err
		}
		if n.idx < 0 {
			return 0, 0, it.runErr("load from unknown region %q", n.mem)
		}
		if it.mm != nil {
			it.mm.Mem(mem.AccessLoad, int(n.idx), addr)
		}
		ready := max(ra, it.ctrl)
		if n.class >= 0 {
			ready = max(ready, it.classReady[n.class])
		}
		done := it.cm.Instr(ClassLoad, ready)
		if n.class >= 0 {
			it.classReady[n.class] = done
		}
		v, err := it.im.Load(int(n.idx), addr)
		if err != nil {
			return 0, 0, err
		}
		return v, done, nil
	case opCall:
		f := &it.code.funcs[n.idx]
		// The callee's frame sits above every frame the argument
		// expressions' own calls push and pop, so arguments are written
		// straight into its parameter slots.
		base := it.reserve(f)
		ready := it.ctrl
		for i, a := range n.args {
			v, r, err := it.expr(a)
			if err != nil {
				return 0, 0, err
			}
			it.stack[base+i] = binding{val: v, ready: r}
			ready = max(ready, r)
		}
		if err := it.count(ClassCall); err != nil {
			return 0, 0, err
		}
		return it.call(f, base, it.cm.Instr(ClassCall, ready))
	}
	return 0, 0, it.runErr("unknown expression op %d", n.op)
}
