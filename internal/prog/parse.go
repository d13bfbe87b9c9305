package prog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dfg"
)

// Parse reads a program in the IR's concrete syntax (the inverse of
// Format). The grammar, informally:
//
//	program  = "program" STRING "entry" IDENT { mem | func }
//	mem      = "mem" IDENT "[" NUMBER "]"
//	func     = "func" IDENT "(" [ IDENT {"," IDENT} ] ")" "{" {stmt} ["return" expr] "}"
//	stmt     = "let" IDENT "=" expr
//	         | IDENT "=" expr
//	         | "store" ["@" IDENT] IDENT "[" expr "]" "=" expr
//	         | "if" expr "{" {stmt} "}" ["else" "{" {stmt} "}"]
//	         | "loop" [STRING] "carry" "(" [carries] ")" "while" expr "{" {stmt} "}"
//	         | "do" expr
//	carries  = IDENT "=" expr {"," IDENT "=" expr}
//	expr     = binary expression over | ^ & == != < <= > >= << >> + - * / %
//	primary  = NUMBER | "(" expr ")" | "-" primary | IDENT
//	         | IDENT "(" args ")"                  (call)
//	         | IDENT "[" expr "]" ["@" IDENT]      (load, optionally classed)
//	         | "select" "(" e "," e "," e ")" | "min"/"max" "(" e "," e ")"
//
// "//" comments run to end of line. select, min, and max are reserved
// builtins. Scoping is lexical: each function, loop body and if-branch is
// a scope, and a let may not shadow a variable visible from an enclosing
// scope of the same function (a loop's carry rebinds its outer namesake
// and is legal). The result is not checked; run Check before executing,
// which enforces that rule.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	ps := &parser{toks: toks}
	p, err := ps.program()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is Parse for tests and examples with known-good sources.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ---- lexer ----

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func lex(src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	emit := func(kind tokKind, text string, startCol int) {
		toks = append(toks, token{kind: kind, text: text, line: line, col: startCol})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			col = 1
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
			col++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '"':
			start, startCol := i, col
			i++
			col++
			var sb strings.Builder
			for i < len(src) && src[i] != '"' {
				if src[i] == '\\' && i+1 < len(src) {
					i++
					col++
					switch src[i] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(src[i])
					}
				} else {
					if src[i] == '\n' {
						return nil, fmt.Errorf("prog: %d:%d: newline in string", line, startCol)
					}
					sb.WriteByte(src[i])
				}
				i++
				col++
			}
			if i >= len(src) {
				return nil, fmt.Errorf("prog: %d:%d: unterminated string starting at %d", line, startCol, start)
			}
			i++
			col++
			emit(tokString, sb.String(), startCol)
		case isDigit(c):
			start, startCol := i, col
			for i < len(src) && isDigit(src[i]) {
				i++
				col++
			}
			emit(tokNumber, src[start:i], startCol)
		case isIdentStart(c):
			start, startCol := i, col
			for i < len(src) && isIdentPart(src[i]) {
				i++
				col++
			}
			emit(tokIdent, src[start:i], startCol)
		default:
			startCol := col
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "<<", ">>":
				emit(tokPunct, two, startCol)
				i += 2
				col += 2
				continue
			}
			switch c {
			case '(', ')', '{', '}', '[', ']', ',', '=', '@', '+', '-', '*', '/', '%', '<', '>', '&', '|', '^':
				emit(tokPunct, string(c), startCol)
				i++
				col++
			default:
				return nil, fmt.Errorf("prog: %d:%d: unexpected character %q", line, col, c)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c == '$' || (c|0x20) >= 'a' && (c|0x20) <= 'z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '.' }

// ---- parser ----

type parser struct {
	toks []token
	pos  int
}

func (ps *parser) peek() token { return ps.toks[ps.pos] }
func (ps *parser) next() token { t := ps.toks[ps.pos]; ps.pos++; return t }
func (ps *parser) at(text string) bool {
	t := ps.peek()
	return (t.kind == tokPunct || t.kind == tokIdent) && t.text == text
}

func (ps *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("prog: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (ps *parser) expect(text string) error {
	if !ps.at(text) {
		return ps.errf(ps.peek(), "expected %q, found %q", text, ps.peek().text)
	}
	ps.next()
	return nil
}

func (ps *parser) ident() (string, error) {
	t := ps.peek()
	if t.kind != tokIdent {
		return "", ps.errf(t, "expected identifier, found %q", t.text)
	}
	ps.next()
	return t.text, nil
}

func (ps *parser) program() (*Program, error) {
	if err := ps.expect("program"); err != nil {
		return nil, err
	}
	nameTok := ps.next()
	if nameTok.kind != tokString {
		return nil, ps.errf(nameTok, "expected program name string")
	}
	if err := ps.expect("entry"); err != nil {
		return nil, err
	}
	entry, err := ps.ident()
	if err != nil {
		return nil, err
	}
	p := &Program{Name: nameTok.text, Entry: entry}
	for {
		t := ps.peek()
		switch {
		case t.kind == tokEOF:
			return p, nil
		case ps.at("mem"):
			ps.next()
			name, err := ps.ident()
			if err != nil {
				return nil, err
			}
			if err := ps.expect("["); err != nil {
				return nil, err
			}
			sizeTok := ps.next()
			if sizeTok.kind != tokNumber {
				return nil, ps.errf(sizeTok, "expected region size")
			}
			size, _ := strconv.Atoi(sizeTok.text)
			if err := ps.expect("]"); err != nil {
				return nil, err
			}
			p.DeclareMem(name, size)
		case ps.at("func"):
			f, err := ps.funcDecl()
			if err != nil {
				return nil, err
			}
			p.Funcs = append(p.Funcs, f)
		default:
			return nil, ps.errf(t, "expected mem or func declaration, found %q", t.text)
		}
	}
}

func (ps *parser) funcDecl() (*Func, error) {
	ps.next() // "func"
	name, err := ps.ident()
	if err != nil {
		return nil, err
	}
	if err := ps.expect("("); err != nil {
		return nil, err
	}
	var params []string
	for !ps.at(")") {
		if len(params) > 0 {
			if err := ps.expect(","); err != nil {
				return nil, err
			}
		}
		pn, err := ps.ident()
		if err != nil {
			return nil, err
		}
		params = append(params, pn)
	}
	ps.next() // ")"
	if err := ps.expect("{"); err != nil {
		return nil, err
	}
	f := &Func{Name: name, Params: params}
	for !ps.at("}") && !ps.at("return") {
		s, err := ps.stmt()
		if err != nil {
			return nil, err
		}
		f.Body = append(f.Body, s)
	}
	if ps.at("return") {
		ps.next()
		e, err := ps.expr()
		if err != nil {
			return nil, err
		}
		f.Ret = e
	}
	if err := ps.expect("}"); err != nil {
		return nil, err
	}
	return f, nil
}

func (ps *parser) stmts() ([]Stmt, error) {
	if err := ps.expect("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !ps.at("}") {
		s, err := ps.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	ps.next() // "}"
	return out, nil
}

func (ps *parser) stmt() (Stmt, error) {
	t := ps.peek()
	switch {
	case ps.at("let"):
		ps.next()
		name, err := ps.ident()
		if err != nil {
			return nil, err
		}
		if err := ps.expect("="); err != nil {
			return nil, err
		}
		e, err := ps.expr()
		if err != nil {
			return nil, err
		}
		return Let{Name: name, E: e}, nil
	case ps.at("store"):
		ps.next()
		class := ""
		if ps.at("@") {
			ps.next()
			var err error
			class, err = ps.ident()
			if err != nil {
				return nil, err
			}
		}
		memName, err := ps.ident()
		if err != nil {
			return nil, err
		}
		if err := ps.expect("["); err != nil {
			return nil, err
		}
		addr, err := ps.expr()
		if err != nil {
			return nil, err
		}
		if err := ps.expect("]"); err != nil {
			return nil, err
		}
		if err := ps.expect("="); err != nil {
			return nil, err
		}
		val, err := ps.expr()
		if err != nil {
			return nil, err
		}
		return StoreStmt{Mem: memName, Addr: addr, Val: val, Class: class}, nil
	case ps.at("if"):
		ps.next()
		cond, err := ps.expr()
		if err != nil {
			return nil, err
		}
		then, err := ps.stmts()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if ps.at("else") {
			ps.next()
			els, err = ps.stmts()
			if err != nil {
				return nil, err
			}
		}
		return If{Cond: cond, Then: then, Else: els}, nil
	case ps.at("loop"):
		return ps.loop()
	case ps.at("do"):
		ps.next()
		e, err := ps.expr()
		if err != nil {
			return nil, err
		}
		return ExprStmt{E: e}, nil
	case t.kind == tokIdent:
		name, _ := ps.ident()
		if err := ps.expect("="); err != nil {
			return nil, err
		}
		e, err := ps.expr()
		if err != nil {
			return nil, err
		}
		return Assign{Name: name, E: e}, nil
	default:
		return nil, ps.errf(t, "expected a statement, found %q", t.text)
	}
}

func (ps *parser) loop() (Stmt, error) {
	ps.next() // "loop"
	label := ""
	if ps.peek().kind == tokString {
		label = ps.next().text
	}
	if err := ps.expect("carry"); err != nil {
		return nil, err
	}
	if err := ps.expect("("); err != nil {
		return nil, err
	}
	var vars []LoopVar
	for !ps.at(")") {
		if len(vars) > 0 {
			if err := ps.expect(","); err != nil {
				return nil, err
			}
		}
		name, err := ps.ident()
		if err != nil {
			return nil, err
		}
		if err := ps.expect("="); err != nil {
			return nil, err
		}
		init, err := ps.expr()
		if err != nil {
			return nil, err
		}
		vars = append(vars, LoopVar{Name: name, Init: init})
	}
	ps.next() // ")"
	if err := ps.expect("while"); err != nil {
		return nil, err
	}
	cond, err := ps.expr()
	if err != nil {
		return nil, err
	}
	body, err := ps.stmts()
	if err != nil {
		return nil, err
	}
	return While{Label: label, Vars: vars, Cond: cond, Body: body}, nil
}

// ---- expressions (precedence climbing) ----

var binOps = map[string]struct {
	kind dfg.BinKind
	prec int
}{
	"|":  {dfg.BinOr, 1},
	"^":  {dfg.BinXor, 2},
	"&":  {dfg.BinAnd, 3},
	"==": {dfg.BinEq, 4},
	"!=": {dfg.BinNe, 4},
	"<":  {dfg.BinLt, 5},
	"<=": {dfg.BinLe, 5},
	">":  {dfg.BinGt, 5},
	">=": {dfg.BinGe, 5},
	"<<": {dfg.BinShl, 6},
	">>": {dfg.BinShr, 6},
	"+":  {dfg.BinAdd, 7},
	"-":  {dfg.BinSub, 7},
	"*":  {dfg.BinMul, 8},
	"/":  {dfg.BinDiv, 8},
	"%":  {dfg.BinRem, 8},
}

func (ps *parser) expr() (Expr, error) { return ps.binExpr(1) }

func (ps *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := ps.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := ps.peek()
		if t.kind != tokPunct {
			return lhs, nil
		}
		op, ok := binOps[t.text]
		if !ok || op.prec < minPrec {
			return lhs, nil
		}
		ps.next()
		rhs, err := ps.binExpr(op.prec + 1) // left-associative
		if err != nil {
			return nil, err
		}
		lhs = Bin{Op: op.kind, A: lhs, B: rhs}
	}
}

func (ps *parser) primary() (Expr, error) {
	t := ps.peek()
	switch {
	case t.kind == tokNumber:
		ps.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, ps.errf(t, "bad number %q", t.text)
		}
		return Const{V: v}, nil
	case ps.at("("):
		ps.next()
		e, err := ps.expr()
		if err != nil {
			return nil, err
		}
		if err := ps.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case ps.at("-"):
		ps.next()
		inner, err := ps.primary()
		if err != nil {
			return nil, err
		}
		if k, ok := inner.(Const); ok {
			return Const{V: -k.V}, nil
		}
		return Bin{Op: dfg.BinSub, A: Const{V: 0}, B: inner}, nil
	case ps.at("select"):
		ps.next()
		args, err := ps.argList(3)
		if err != nil {
			return nil, err
		}
		return Select{Cond: args[0], Then: args[1], Else: args[2]}, nil
	case ps.at("min"), ps.at("max"):
		kind := dfg.BinMin
		if t.text == "max" {
			kind = dfg.BinMax
		}
		ps.next()
		args, err := ps.argList(2)
		if err != nil {
			return nil, err
		}
		return Bin{Op: kind, A: args[0], B: args[1]}, nil
	case t.kind == tokIdent:
		name, _ := ps.ident()
		switch {
		case ps.at("("): // call
			args, err := ps.argList(-1)
			if err != nil {
				return nil, err
			}
			return Call{Fn: name, Args: args}, nil
		case ps.at("["): // load
			ps.next()
			addr, err := ps.expr()
			if err != nil {
				return nil, err
			}
			if err := ps.expect("]"); err != nil {
				return nil, err
			}
			class := ""
			if ps.at("@") {
				ps.next()
				class, err = ps.ident()
				if err != nil {
					return nil, err
				}
			}
			return Load{Mem: name, Addr: addr, Class: class}, nil
		default:
			return Var{Name: name}, nil
		}
	default:
		return nil, ps.errf(t, "expected an expression, found %q", t.text)
	}
}

// argList parses "(" e {"," e} ")", optionally enforcing an exact count
// (want < 0 accepts any).
func (ps *parser) argList(want int) ([]Expr, error) {
	open := ps.peek()
	if err := ps.expect("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !ps.at(")") {
		if len(args) > 0 {
			if err := ps.expect(","); err != nil {
				return nil, err
			}
		}
		e, err := ps.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	ps.next() // ")"
	if want >= 0 && len(args) != want {
		return nil, ps.errf(open, "expected %d arguments, found %d", want, len(args))
	}
	return args, nil
}
