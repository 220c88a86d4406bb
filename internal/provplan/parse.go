package provplan

import (
	"strconv"
	"strings"
)

// This file is the text form of the query algebra — what the cpdb CLI's
// -query "plan …" verb and the README examples use. The grammar is small
// and regular; Query.String() renders the canonical form, and
// Parse(q.String()) reproduces q.
//
//	query  := select | trace | mod | hist | src
//	select := "select" [agg] ["where" clause {"and" clause}]
//	          ["join" var "(" select ")"] ["order" ord] ["desc"]
//	          ["limit" N]
//	agg    := "count" | "min-tid" | "max-tid"
//	var    := "tid" | "src-loc" | "loc-src"
//	ord    := "tid-loc" | "loc-tid"
//	clause := "tid"  ("=" N | "=" N ".." M | ">=" N | "<=" N)
//	        | "op"   "=" letters           (subset of I,C,D, comma-sep)
//	        | "loc"  ("=" PATTERN | "<=" PATH | ">=" PATH)
//	        | "src"  ("=" PATTERN | ">=" PATH)
//	trace  := ("trace"|"mod"|"hist"|"src") PATH ["asof" N]
//
// loc<=P keeps ancestors-or-self of P (the paper's p ≤ q prefix order);
// loc>=P keeps the subtree at P; loc=P with wildcards is a path.Pattern
// match ("T/*/y"). Parse only builds the Query; Compile validates it.

// Parse parses the textual form of a query.
func Parse(s string) (*Query, error) {
	toks := tokenize(s)
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if t, ok := p.peek(); ok {
		return nil, badQuery("unexpected trailing %q", t)
	}
	return q, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(s string) *Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// tokenize splits the input on whitespace, treating parentheses as
// standalone tokens whether or not they are surrounded by spaces.
func tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '(' || r == ')':
			flush()
			toks = append(toks, string(r))
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

type parser struct {
	toks []string
	i    int
}

func (p *parser) peek() (string, bool) {
	if p.i >= len(p.toks) {
		return "", false
	}
	return p.toks[p.i], true
}

func (p *parser) next() (string, bool) {
	t, ok := p.peek()
	if ok {
		p.i++
	}
	return t, ok
}

func (p *parser) expect(want string) error {
	t, ok := p.next()
	if !ok {
		return badQuery("expected %q at end of query", want)
	}
	if t != want {
		return badQuery("expected %q, got %q", want, t)
	}
	return nil
}

// accept consumes the next token if it equals want.
func (p *parser) accept(want string) bool {
	if t, ok := p.peek(); ok && t == want {
		p.i++
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	t, ok := p.next()
	if !ok {
		return nil, badQuery("empty query")
	}
	switch t {
	case OpSelect:
		return p.parseSelect()
	case OpTrace, OpMod, OpHist, OpSrc:
		pathArg, ok := p.next()
		if !ok {
			return nil, badQuery("%s needs a path", t)
		}
		q := &Query{Op: t, Path: pathArg}
		if p.accept("asof") {
			n, err := p.parseInt("asof")
			if err != nil {
				return nil, err
			}
			q.AsOf = n
		}
		return q, nil
	default:
		return nil, badQuery("unknown query kind %q", t)
	}
}

// parseSelect parses a select body; the "select" keyword is already
// consumed.
func (p *parser) parseSelect() (*Query, error) {
	q := &Query{Op: OpSelect}
	if t, ok := p.peek(); ok {
		switch t {
		case aggCount, aggMinTid, aggMaxTid:
			q.Agg = t
			p.i++
		}
	}
	if p.accept("where") {
		for {
			t, ok := p.next()
			if !ok {
				return nil, badQuery("expected a clause after %q", "where")
			}
			if err := q.Where.addClause(t); err != nil {
				return nil, err
			}
			if !p.accept("and") {
				break
			}
		}
	}
	if p.accept("join") {
		on, ok := p.next()
		if !ok {
			return nil, badQuery("join needs a variable (tid, src-loc or loc-src)")
		}
		switch on {
		case joinTid, joinSrcLoc, joinLocSrc:
		default:
			return nil, badQuery("unknown join variable %q", on)
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if err := p.expect(OpSelect); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		q.Join = &Join{On: on, Sub: sub}
	}
	if p.accept("order") {
		ord, ok := p.next()
		if !ok {
			return nil, badQuery("order needs %q or %q", OrderTidLoc, OrderLocTid)
		}
		switch ord {
		case OrderTidLoc, OrderLocTid:
			q.Order = ord
		default:
			return nil, badQuery("unknown order %q", ord)
		}
	}
	if p.accept("desc") {
		q.Desc = true
	}
	if p.accept("limit") {
		n, err := p.parseInt("limit")
		if err != nil {
			return nil, err
		}
		q.Limit = int(n)
	}
	return q, nil
}

func (p *parser) parseInt(what string) (int64, error) {
	t, ok := p.next()
	if !ok {
		return 0, badQuery("%s needs a number", what)
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 1 {
		return 0, badQuery("%s needs a positive number, got %q", what, t)
	}
	return n, nil
}

// addClause parses one "key op value" clause token into the predicate.
func (w *Pred) addClause(tok string) error {
	key, op, val, err := splitClause(tok)
	if err != nil {
		return err
	}
	switch key {
	case "tid":
		return w.addTidClause(op, val)
	case "op":
		if op != "=" {
			return badQuery("op supports only =, got %q", tok)
		}
		if w.Ops != "" {
			return badQuery("duplicate op= clause")
		}
		ops := strings.ToUpper(strings.ReplaceAll(val, ",", ""))
		if ops == "" {
			return badQuery("op= needs letters (I, C or D)")
		}
		w.Ops = ops
		return nil
	case "loc":
		switch op {
		case "=":
			return setOnce(&w.Loc, "loc=", val)
		case "<=":
			return setOnce(&w.LocAbove, "loc<=", val)
		default: // ">="
			return setOnce(&w.LocUnder, "loc>=", val)
		}
	case "src":
		switch op {
		case "=":
			return setOnce(&w.Src, "src=", val)
		case ">=":
			return setOnce(&w.SrcUnder, "src>=", val)
		default:
			return badQuery("src supports = and >=, got %q", tok)
		}
	default:
		return badQuery("unknown clause field %q (want tid, op, loc or src)", key)
	}
}

func setOnce(dst *string, what, val string) error {
	if val == "" {
		return badQuery("%s needs a value", what)
	}
	if *dst != "" {
		return badQuery("duplicate %s clause", what)
	}
	*dst = val
	return nil
}

// addTidClause merges a tid bound into the predicate; several tid clauses
// intersect.
func (w *Pred) addTidClause(op, val string) error {
	parseN := func(s string) (int64, error) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 1 {
			return 0, badQuery("tid bound must be a positive number, got %q", s)
		}
		return n, nil
	}
	var lo, hi int64
	switch op {
	case "=":
		if a, b, ok := strings.Cut(val, ".."); ok {
			na, err := parseN(a)
			if err != nil {
				return err
			}
			nb, err := parseN(b)
			if err != nil {
				return err
			}
			lo, hi = na, nb
		} else {
			n, err := parseN(val)
			if err != nil {
				return err
			}
			lo, hi = n, n
		}
	case ">=":
		n, err := parseN(val)
		if err != nil {
			return err
		}
		lo = n
	case "<=":
		n, err := parseN(val)
		if err != nil {
			return err
		}
		hi = n
	}
	if lo > 0 && (w.TidMin == 0 || lo > w.TidMin) {
		w.TidMin = lo
	}
	if hi > 0 && (w.TidMax == 0 || hi < w.TidMax) {
		w.TidMax = hi
	}
	return nil
}

// splitClause splits "key<op>value" at the first comparison operator,
// checking two-character operators first.
func splitClause(tok string) (key, op, val string, err error) {
	for i := 0; i < len(tok); i++ {
		switch {
		case tok[i] == '<' || tok[i] == '>':
			if i+1 >= len(tok) || tok[i+1] != '=' {
				return "", "", "", badQuery("clause %q: only <=, >= and = are supported", tok)
			}
			return tok[:i], tok[i : i+2], tok[i+2:], nil
		case tok[i] == '=':
			return tok[:i], "=", tok[i+1:], nil
		}
	}
	return "", "", "", badQuery("clause %q needs an operator (=, <= or >=)", tok)
}
