package prog

import (
	"fmt"
	"sort"
)

// MaxMemWords bounds the words a program's mem regions may declare in
// total. Every run allocates its regions up front, so a larger
// declaration is refused here rather than failing the allocation; the
// largest suite image (medium dmv) is 25,920 words.
const MaxMemWords = 1 << 24

// Check validates a program:
//
//   - the entry function exists,
//   - memory regions are declared once, every access names one, and
//     their sizes together stay within MaxMemWords,
//   - calls target existing functions with matching arity and the call
//     graph is acyclic (no recursion; see Sec. V of the paper),
//   - variables are declared before use, never redeclared in the same
//     scope, and writes never cross a loop boundary unless the variable is
//     loop-carried on that loop (the merge-out of a loop's carried
//     variables counts as a write at the loop's location),
//   - a let never shadows a variable visible from an enclosing scope of
//     the same function (a carried loop variable rebinds its outer
//     namesake and stays legal), so every name has one binding in scope
//     wherever it is used,
//   - loop labels are unique so experiments can address blocks by name.
//
// Check must pass before Compile or Run; its error messages identify the
// offending construct.
func Check(p *Program) error {
	c := &checker{p: p}
	c.run()
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("prog: %s: %d error(s), first: %w", p.Name, len(c.errs), c.errs[0])
}

type scopeKind uint8

const (
	scopeBlock scopeKind = iota
	scopeLoop
	scopeFunc
)

type scope struct {
	kind  scopeKind
	names map[string]bool
}

type checker struct {
	p      *Program
	scopes []scope
	errs   []error
	fn     *Func
	labels map[string]bool
	mems   map[string]bool
}

func (c *checker) errorf(format string, args ...interface{}) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

func (c *checker) run() {
	c.mems = make(map[string]bool)
	words := 0
	for _, m := range c.p.Mems {
		if c.mems[m.Name] {
			c.errorf("memory region %q declared twice", m.Name)
		}
		if m.Size < 0 {
			c.errorf("memory region %q has negative size %d", m.Name, m.Size)
		} else if m.Size > MaxMemWords-words {
			c.errorf("memory regions exceed %d words in total (region %q declares %d)", MaxMemWords, m.Name, m.Size)
			words = MaxMemWords
		} else {
			words += m.Size
		}
		c.mems[m.Name] = true
	}

	seen := make(map[string]bool)
	for _, f := range c.p.Funcs {
		if seen[f.Name] {
			c.errorf("function %q defined twice", f.Name)
		}
		seen[f.Name] = true
	}
	if c.p.EntryFunc() == nil {
		c.errorf("entry function %q not defined", c.p.Entry)
	}
	if _, err := CallOrder(c.p); err != nil {
		c.errs = append(c.errs, err)
	}

	c.labels = make(map[string]bool)
	for _, f := range c.p.Funcs {
		c.checkFunc(f)
	}
}

func (c *checker) checkFunc(f *Func) {
	c.fn = f
	c.scopes = c.scopes[:0]
	c.push(scopeFunc)
	for _, p := range f.Params {
		c.declare(f, p)
	}
	c.checkStmts(f.Body)
	if f.Ret != nil {
		c.checkExpr(f.Ret)
	}
	c.pop()
}

func (c *checker) push(k scopeKind) {
	c.scopes = append(c.scopes, scope{kind: k, names: make(map[string]bool)})
}

func (c *checker) pop() { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(f *Func, name string) {
	top := &c.scopes[len(c.scopes)-1]
	if top.names[name] {
		c.errorf("func %q: variable %q redeclared in the same scope", f.Name, name)
	}
	top.names[name] = true
}

// canRead reports whether name is visible for reading (any enclosing scope
// within the current function).
func (c *checker) canRead(name string) bool {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if c.scopes[i].names[name] {
			return true
		}
	}
	return false
}

// canWrite reports whether name can be rebound from the current position:
// the binding must be reachable without crossing a loop boundary.
func (c *checker) canWrite(name string) (found, crossesLoop bool) {
	crossed := false
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if c.scopes[i].names[name] {
			return true, crossed
		}
		if c.scopes[i].kind == scopeLoop {
			crossed = true
		}
	}
	return false, false
}

func (c *checker) checkStmts(stmts []Stmt) {
	for _, s := range stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s Stmt) {
	switch st := s.(type) {
	case Let:
		c.checkExpr(st.E)
		if !c.scopes[len(c.scopes)-1].names[st.Name] && c.canRead(st.Name) {
			c.errorf("func %q: let %q shadows a variable of an enclosing scope", c.fn.Name, st.Name)
		}
		c.declare(c.fn, st.Name)
	case Assign:
		c.checkExpr(st.E)
		c.checkWrite(st.Name, "assignment")
	case StoreStmt:
		c.checkMem(st.Mem)
		c.checkExpr(st.Addr)
		c.checkExpr(st.Val)
	case If:
		c.checkExpr(st.Cond)
		c.push(scopeBlock)
		c.checkStmts(st.Then)
		c.pop()
		c.push(scopeBlock)
		c.checkStmts(st.Else)
		c.pop()
	case While:
		c.checkWhile(st)
	case ExprStmt:
		c.checkExpr(st.E)
	default:
		c.errorf("func %q: unknown statement %T", c.fn.Name, s)
	}
}

func (c *checker) checkWrite(name, what string) {
	found, crossesLoop := c.canWrite(name)
	if !found {
		if c.canRead(name) {
			c.errorf("func %q: %s to %q crosses a loop boundary; declare it loop-carried on the enclosing loop", c.fn.Name, what, name)
		} else {
			c.errorf("func %q: %s to undeclared variable %q", c.fn.Name, what, name)
		}
		return
	}
	if crossesLoop {
		c.errorf("func %q: %s to %q crosses a loop boundary; declare it loop-carried on the enclosing loop", c.fn.Name, what, name)
	}
}

func (c *checker) checkWhile(w While) {
	if w.Label != "" {
		if c.labels[w.Label] {
			c.errorf("func %q: duplicate loop label %q", c.fn.Name, w.Label)
		}
		c.labels[w.Label] = true
	}
	vnames := make(map[string]bool, len(w.Vars))
	for _, v := range w.Vars {
		if vnames[v.Name] {
			c.errorf("func %q: loop %q declares carried variable %q twice", c.fn.Name, w.Label, v.Name)
		}
		vnames[v.Name] = true
		c.checkExpr(v.Init) // evaluated in enclosing scope
	}
	c.push(scopeLoop)
	for _, v := range w.Vars {
		c.scopes[len(c.scopes)-1].names[v.Name] = true
	}
	c.checkExpr(w.Cond)
	c.checkStmts(w.Body)
	c.pop()
	// Merge-out: each carried var is written back to an existing outer
	// binding, or declared fresh in the current scope.
	names := make([]string, 0, len(w.Vars))
	for _, v := range w.Vars {
		names = append(names, v.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		found, crossesLoop := c.canWrite(name)
		switch {
		case found && crossesLoop:
			c.errorf("func %q: loop %q result %q crosses an enclosing loop boundary; carry it on that loop too", c.fn.Name, w.Label, name)
		case !found:
			if c.canRead(name) {
				c.errorf("func %q: loop %q result %q crosses an enclosing loop boundary; carry it on that loop too", c.fn.Name, w.Label, name)
			} else {
				c.scopes[len(c.scopes)-1].names[name] = true
			}
		}
	}
}

func (c *checker) checkMem(name string) {
	if !c.mems[name] {
		c.errorf("func %q: access to undeclared memory region %q", c.fn.Name, name)
	}
}

func (c *checker) checkExpr(e Expr) {
	switch ex := e.(type) {
	case Const:
	case Var:
		if !c.canRead(ex.Name) {
			c.errorf("func %q: read of undeclared variable %q", c.fn.Name, ex.Name)
		}
	case Bin:
		c.checkExpr(ex.A)
		c.checkExpr(ex.B)
	case Select:
		c.checkExpr(ex.Cond)
		c.checkExpr(ex.Then)
		c.checkExpr(ex.Else)
	case Load:
		c.checkMem(ex.Mem)
		c.checkExpr(ex.Addr)
	case Call:
		callee := c.p.FindFunc(ex.Fn)
		if callee == nil {
			c.errorf("func %q: call to undefined function %q", c.fn.Name, ex.Fn)
		} else if len(callee.Params) != len(ex.Args) {
			c.errorf("func %q: call to %q with %d args, want %d", c.fn.Name, ex.Fn, len(ex.Args), len(callee.Params))
		}
		for _, a := range ex.Args {
			c.checkExpr(a)
		}
	default:
		c.errorf("func %q: unknown expression %T", c.fn.Name, e)
	}
}

// CallOrder returns function names in callee-before-caller (topological)
// order, or an error if the call graph is cyclic or references undefined
// functions.
func CallOrder(p *Program) ([]string, error) {
	adj := make(map[string][]string, len(p.Funcs)) // caller -> callees
	for _, f := range p.Funcs {
		callees := make(map[string]bool)
		collectCalls(f.Body, f.Ret, callees)
		list := make([]string, 0, len(callees))
		//tyr:nondet-ok -- keys only collected here, sorted before use
		for name := range callees {
			list = append(list, name)
		}
		// Sort before validating so the reported undefined callee is
		// deterministic when several are missing.
		sort.Strings(list)
		for _, name := range list {
			if p.FindFunc(name) == nil {
				return nil, fmt.Errorf("prog: %s: func %q calls undefined %q", p.Name, f.Name, name)
			}
		}
		adj[f.Name] = list
	}

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(p.Funcs))
	var order []string
	var visit func(string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("prog: %s: recursive call cycle through %q (transform recursion to loops per Sec. V)", p.Name, name)
		case black:
			return nil
		}
		color[name] = gray
		for _, callee := range adj[name] {
			if err := visit(callee); err != nil {
				return err
			}
		}
		color[name] = black
		order = append(order, name)
		return nil
	}
	names := make([]string, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func collectCalls(body []Stmt, ret Expr, out map[string]bool) {
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch ex := e.(type) {
		case Bin:
			walkExpr(ex.A)
			walkExpr(ex.B)
		case Select:
			walkExpr(ex.Cond)
			walkExpr(ex.Then)
			walkExpr(ex.Else)
		case Load:
			walkExpr(ex.Addr)
		case Call:
			out[ex.Fn] = true
			for _, a := range ex.Args {
				walkExpr(a)
			}
		}
	}
	var walkStmts func([]Stmt)
	walkStmts = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case Let:
				walkExpr(st.E)
			case Assign:
				walkExpr(st.E)
			case StoreStmt:
				walkExpr(st.Addr)
				walkExpr(st.Val)
			case If:
				walkExpr(st.Cond)
				walkStmts(st.Then)
				walkStmts(st.Else)
			case While:
				for _, v := range st.Vars {
					walkExpr(v.Init)
				}
				walkExpr(st.Cond)
				walkStmts(st.Body)
			case ExprStmt:
				walkExpr(st.E)
			}
		}
	}
	walkStmts(body)
	if ret != nil {
		walkExpr(ret)
	}
}
