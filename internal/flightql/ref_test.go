package flightql_test

// This file keeps the query engine as it stood before fields and literals
// were resolved at parse time, renamed (Query → refQuery, Parse →
// refParse, Run → refRun, ViewRec → refViewRec; the result types are
// flightql's own) and otherwise verbatim. The differential tests in
// diff_test.go hold the engine to byte-identical results, tables and
// errors against it; do not "fix" or speed up this copy.

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"flextm/internal/flight"
	"flextm/internal/flightql"
	"flextm/internal/replay"
	"flextm/internal/sim"
)

// ---------------------------------------------------------------------------
// Lexer

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tPipe
	tLParen
	tRParen
	tLBrack
	tRBrack
	tComma
	tOp  // == != < <= > >=
	tAnd // &&
	tOr  // ||
	tNot // !
)

type token struct {
	kind tokKind
	text string
	num  int64
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isAlpha(c):
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			toks = append(toks, token{kind: tIdent, text: src[i:j], pos: i})
			i = j
		case c >= '0' && c <= '9', c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i + 1
			for j < len(src) && (isHexDigit(src[j]) || src[j] == 'x' || src[j] == 'X') {
				j++
			}
			n, err := strconv.ParseInt(src[i:j], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("flightql: bad number %q at offset %d", src[i:j], i)
			}
			toks = append(toks, token{kind: tNumber, text: src[i:j], num: n, pos: i})
			i = j
		case c == '"' || c == '\'':
			j := i + 1
			for j < len(src) && src[j] != c {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("flightql: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tIdent, text: src[i+1 : j], pos: i})
			i = j + 1
		case c == '|':
			if i+1 < len(src) && src[i+1] == '|' {
				toks = append(toks, token{kind: tOr, text: "||", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tPipe, text: "|", pos: i})
				i++
			}
		case c == '&':
			if i+1 < len(src) && src[i+1] == '&' {
				toks = append(toks, token{kind: tAnd, text: "&&", pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("flightql: stray '&' at offset %d", i)
			}
		case c == '=':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{kind: tOp, text: "==", pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("flightql: stray '=' at offset %d (use ==)", i)
			}
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{kind: tOp, text: "!=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tNot, text: "!", pos: i})
				i++
			}
		case c == '<', c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{kind: tOp, text: src[i : i+2], pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tOp, text: src[i : i+1], pos: i})
				i++
			}
		case c == '(':
			toks = append(toks, token{kind: tLParen, text: "(", pos: i})
			i++
		case c == ')':
			toks = append(toks, token{kind: tRParen, text: ")", pos: i})
			i++
		case c == '[':
			toks = append(toks, token{kind: tLBrack, text: "[", pos: i})
			i++
		case c == ']':
			toks = append(toks, token{kind: tRBrack, text: "]", pos: i})
			i++
		case c == ',':
			toks = append(toks, token{kind: tComma, text: ",", pos: i})
			i++
		default:
			return nil, fmt.Errorf("flightql: unexpected %q at offset %d", string(c), i)
		}
	}
	toks = append(toks, token{kind: tEOF, pos: len(src)})
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// Identifiers may contain '-' so kind names (abort-enemy) and line-state
// fields (last-writer) lex as single tokens; the grammar has no arithmetic,
// so this is unambiguous.
func isIdentChar(c byte) bool {
	return isAlpha(c) || c == '-' || (c >= '0' && c <= '9')
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// ---------------------------------------------------------------------------
// Expressions

type literal struct {
	num   int64
	ident string
	isNum bool
}

func (l literal) String() string {
	if l.isNum {
		return strconv.FormatInt(l.num, 10)
	}
	return l.ident
}

type expr interface {
	eval(get getter) (bool, error)
}

type getter func(field string) (int64, bool)

type binExpr struct {
	and  bool
	l, r expr
}

func (e *binExpr) eval(g getter) (bool, error) {
	lv, err := e.l.eval(g)
	if err != nil {
		return false, err
	}
	if e.and && !lv {
		return false, nil
	}
	if !e.and && lv {
		return true, nil
	}
	return e.r.eval(g)
}

type notExpr struct{ e expr }

func (e *notExpr) eval(g getter) (bool, error) {
	v, err := e.e.eval(g)
	return !v, err
}

type cmpExpr struct {
	field string
	op    string // ==, !=, <, <=, >, >=, in
	lit   literal
	set   []literal // op == "in"
}

func (e *cmpExpr) eval(g getter) (bool, error) {
	fv, ok := g(e.field)
	if !ok {
		return false, fmt.Errorf("flightql: unknown field %q here", e.field)
	}
	resolve := func(l literal) (int64, error) { return resolveLiteral(e.field, l) }
	if e.op == "in" {
		for _, l := range e.set {
			lv, err := resolve(l)
			if err != nil {
				return false, err
			}
			if fv == lv {
				return true, nil
			}
		}
		return false, nil
	}
	lv, err := resolve(e.lit)
	if err != nil {
		return false, err
	}
	switch e.op {
	case "==":
		return fv == lv, nil
	case "!=":
		return fv != lv, nil
	case "<":
		return fv < lv, nil
	case "<=":
		return fv <= lv, nil
	case ">":
		return fv > lv, nil
	case ">=":
		return fv >= lv, nil
	}
	return false, fmt.Errorf("flightql: bad operator %q", e.op)
}

// resolveLiteral maps an identifier literal to the numeric domain of the
// field it is compared against: kind names for kind, status names for
// status, true/false for fp.
func resolveLiteral(field string, l literal) (int64, error) {
	if l.isNum {
		return l.num, nil
	}
	switch field {
	case "kind":
		if k, ok := kindByName(l.ident); ok {
			return int64(k), nil
		}
		return 0, fmt.Errorf("flightql: unknown record kind %q", l.ident)
	case "status":
		switch l.ident {
		case "idle":
			return int64(replay.Idle), nil
		case "running":
			return int64(replay.Running), nil
		case "aborted":
			return int64(replay.Aborted), nil
		case "serialized":
			return int64(replay.Serialized), nil
		}
		return 0, fmt.Errorf("flightql: unknown status %q", l.ident)
	case "fp":
		switch l.ident {
		case "true":
			return 1, nil
		case "false":
			return 0, nil
		}
		return 0, fmt.Errorf("flightql: fp compares against true/false, not %q", l.ident)
	}
	return 0, fmt.Errorf("flightql: field %q needs a numeric literal, got %q", field, l.ident)
}

func kindByName(name string) (flight.Kind, bool) {
	for k := flight.Kind(0); k < flight.NumKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Field getters

var recFields = fieldSet("core", "peer", "kind", "line", "aux", "fp", "seq", "at", "cycle", "dur")
var lineFields = fieldSet("line", "writers", "readers", "last-writer", "conflicts")
var coreFields = fieldSet("core", "status", "attempt", "consec-aborts", "sig-lines",
	"commits", "aborts", "escalations", "trips")

func fieldSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func recGetter(r *flight.Rec) getter {
	return func(f string) (int64, bool) {
		switch f {
		case "core":
			return int64(r.Core), true
		case "peer":
			return int64(r.Peer), true
		case "kind":
			return int64(r.Kind), true
		case "line":
			return int64(r.Line), true
		case "aux":
			return int64(r.Aux & flight.AuxMask), true
		case "fp":
			if r.Aux&flight.AuxFP != 0 {
				return 1, true
			}
			return 0, true
		case "seq":
			return int64(r.Seq), true
		case "at", "cycle":
			return int64(r.At), true
		case "dur":
			return int64(r.Dur), true
		}
		return 0, false
	}
}

func lineGetter(l *replay.LineState) getter {
	return func(f string) (int64, bool) {
		switch f {
		case "line":
			return int64(l.Line), true
		case "writers":
			return int64(len(l.Writers)), true
		case "readers":
			return int64(len(l.Readers)), true
		case "last-writer":
			return int64(l.LastWriter), true
		case "conflicts":
			return int64(l.Conflicts), true
		}
		return 0, false
	}
}

func coreGetter(c *replay.CoreState) getter {
	return func(f string) (int64, bool) {
		switch f {
		case "core":
			return int64(c.Core), true
		case "status":
			return int64(c.Status), true
		case "attempt":
			return int64(c.Attempt), true
		case "consec-aborts":
			return int64(c.ConsecAborts), true
		case "sig-lines":
			return int64(c.SigLines), true
		case "commits":
			return int64(c.Commits), true
		case "aborts":
			return int64(c.Aborts), true
		case "escalations":
			return int64(c.Escalations), true
		case "trips":
			return int64(c.Trips), true
		}
		return 0, false
	}
}

// ---------------------------------------------------------------------------
// Aggregates

type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggMean
	aggMax
	aggHist
)

func (a aggKind) String() string {
	switch a {
	case aggSum:
		return "sum(dur)"
	case aggMean:
		return "mean(dur)"
	case aggMax:
		return "max(dur)"
	case aggHist:
		return "hist(dur)"
	}
	return "count"
}

// ---------------------------------------------------------------------------
// Parser

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expectIdent(word string) error {
	t := p.next()
	if t.kind != tIdent || t.text != word {
		return fmt.Errorf("flightql: expected %q at offset %d, got %q", word, t.pos, t.text)
	}
	return nil
}

// refQuery is a parsed pipeline, ready to run any number of times.
type refQuery struct {
	src    string
	stages []stage
}

// Source returns the original query text.
func (q *refQuery) Source() string { return q.src }

// refParse compiles a query. The returned refQuery is immutable and safe for
// concurrent Run calls.
func refParse(src string) (*refQuery, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q := &refQuery{src: src}
	for {
		st, err := p.parseStage()
		if err != nil {
			return nil, err
		}
		q.stages = append(q.stages, st)
		t := p.next()
		if t.kind == tEOF {
			break
		}
		if t.kind != tPipe {
			return nil, fmt.Errorf("flightql: expected '|' or end of query at offset %d, got %q", t.pos, t.text)
		}
	}
	return q, nil
}

func (p *parser) parseStage() (stage, error) {
	t := p.next()
	if t.kind != tIdent {
		return nil, fmt.Errorf("flightql: expected a stage keyword at offset %d", t.pos)
	}
	switch t.text {
	case "filter":
		e, err := p.parseExpr(recFields)
		if err != nil {
			return nil, err
		}
		return &filterStage{e}, nil
	case "group":
		return p.parseGroup()
	case "top":
		return p.parseTop()
	case "count":
		return &countStage{}, nil
	case "expect":
		return p.parseExpect()
	case "at":
		return p.parseAt()
	}
	return nil, fmt.Errorf("flightql: unknown stage %q at offset %d", t.text, t.pos)
}

func (p *parser) parseGroup() (stage, error) {
	if err := p.expectIdent("by"); err != nil {
		return nil, err
	}
	g := &groupStage{}
	for {
		t := p.next()
		if t.kind != tIdent || !recFields[t.text] || t.text == "cycle" {
			return nil, fmt.Errorf("flightql: group by: bad field %q at offset %d", t.text, t.pos)
		}
		g.fields = append(g.fields, t.text)
		if p.cur().kind == tComma {
			p.next()
			continue
		}
		break
	}
	if p.cur().kind == tIdent && p.cur().text == "agg" {
		p.next()
		for {
			a, err := p.parseAgg()
			if err != nil {
				return nil, err
			}
			g.aggs = append(g.aggs, a)
			if p.cur().kind == tComma {
				p.next()
				continue
			}
			break
		}
	} else {
		g.aggs = []aggKind{aggCount}
	}
	return g, nil
}

func (p *parser) parseAgg() (aggKind, error) {
	t := p.next()
	if t.kind != tIdent {
		return 0, fmt.Errorf("flightql: expected an aggregate at offset %d", t.pos)
	}
	var a aggKind
	switch t.text {
	case "count":
		return aggCount, nil
	case "sum":
		a = aggSum
	case "mean":
		a = aggMean
	case "max":
		a = aggMax
	case "hist":
		a = aggHist
	default:
		return 0, fmt.Errorf("flightql: unknown aggregate %q at offset %d", t.text, t.pos)
	}
	if p.next().kind != tLParen {
		return 0, fmt.Errorf("flightql: %s needs (dur)", t.text)
	}
	if err := p.expectIdent("dur"); err != nil {
		return 0, err
	}
	if p.next().kind != tRParen {
		return 0, fmt.Errorf("flightql: %s needs (dur)", t.text)
	}
	return a, nil
}

func (p *parser) parseTop() (stage, error) {
	t := p.next()
	if t.kind != tNumber || t.num <= 0 {
		return nil, fmt.Errorf("flightql: top needs a positive count at offset %d", t.pos)
	}
	if err := p.expectIdent("by"); err != nil {
		return nil, err
	}
	a, err := p.parseAgg()
	if err != nil {
		return nil, err
	}
	if a == aggHist {
		return nil, fmt.Errorf("flightql: cannot rank by hist(dur)")
	}
	return &topStage{k: int(t.num), by: a}, nil
}

func (p *parser) parseExpect() (stage, error) {
	a, err := p.parseAgg()
	if err != nil {
		return nil, err
	}
	if a == aggHist {
		return nil, fmt.Errorf("flightql: cannot expect hist(dur)")
	}
	t := p.next()
	if t.kind != tOp {
		return nil, fmt.Errorf("flightql: expect needs a comparison at offset %d", t.pos)
	}
	n := p.next()
	if n.kind != tNumber {
		return nil, fmt.Errorf("flightql: expect compares against a number, got %q", n.text)
	}
	return &expectStage{agg: a, op: t.text, want: n.num}, nil
}

func (p *parser) parseAt() (stage, error) {
	if err := p.expectIdent("cycle"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tNumber || t.num < 0 {
		return nil, fmt.Errorf("flightql: at cycle needs a cycle number, got %q", t.text)
	}
	if err := p.expectIdent("show"); err != nil {
		return nil, err
	}
	s := p.next()
	st := &atStage{cycle: sim.Time(t.num)}
	var fields map[string]bool
	switch {
	case s.kind == tIdent && s.text == "state":
		st.show = showState
	case s.kind == tIdent && s.text == "cores":
		st.show = showCores
		fields = coreFields
	case s.kind == tIdent && s.text == "lines":
		st.show = showLines
		fields = lineFields
	default:
		return nil, fmt.Errorf("flightql: at cycle N show state|cores|lines, got %q", s.text)
	}
	if p.cur().kind == tIdent && p.cur().text == "where" {
		if st.show == showState {
			return nil, fmt.Errorf("flightql: 'where' applies to show cores|lines, not show state")
		}
		p.next()
		e, err := p.parseExpr(fields)
		if err != nil {
			return nil, err
		}
		st.where = e
	}
	return st, nil
}

func (p *parser) parseExpr(fields map[string]bool) (expr, error) {
	return p.parseOr(fields)
}

func (p *parser) parseOr(fields map[string]bool) (expr, error) {
	l, err := p.parseAnd(fields)
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOr {
		p.next()
		r, err := p.parseAnd(fields)
		if err != nil {
			return nil, err
		}
		l = &binExpr{and: false, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd(fields map[string]bool) (expr, error) {
	l, err := p.parseUnary(fields)
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tAnd {
		p.next()
		r, err := p.parseUnary(fields)
		if err != nil {
			return nil, err
		}
		l = &binExpr{and: true, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary(fields map[string]bool) (expr, error) {
	switch p.cur().kind {
	case tNot:
		p.next()
		e, err := p.parseUnary(fields)
		if err != nil {
			return nil, err
		}
		return &notExpr{e}, nil
	case tLParen:
		p.next()
		e, err := p.parseExpr(fields)
		if err != nil {
			return nil, err
		}
		if p.next().kind != tRParen {
			return nil, fmt.Errorf("flightql: missing ')'")
		}
		return e, nil
	}
	return p.parseCmp(fields)
}

func (p *parser) parseCmp(fields map[string]bool) (expr, error) {
	f := p.next()
	if f.kind != tIdent {
		return nil, fmt.Errorf("flightql: expected a field name at offset %d, got %q", f.pos, f.text)
	}
	if !fields[f.text] {
		return nil, fmt.Errorf("flightql: unknown field %q at offset %d", f.text, f.pos)
	}
	op := p.next()
	if op.kind == tIdent && op.text == "in" {
		if p.next().kind != tLBrack {
			return nil, fmt.Errorf("flightql: 'in' needs [v, ...]")
		}
		e := &cmpExpr{field: f.text, op: "in"}
		for {
			l, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			e.set = append(e.set, l)
			t := p.next()
			if t.kind == tComma {
				continue
			}
			if t.kind == tRBrack {
				break
			}
			return nil, fmt.Errorf("flightql: 'in' list: expected ',' or ']' at offset %d", t.pos)
		}
		return e, nil
	}
	if op.kind != tOp {
		return nil, fmt.Errorf("flightql: expected a comparison after %q at offset %d", f.text, op.pos)
	}
	l, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	// Surface bad kind/status names at parse time, not per record.
	if _, err := resolveLiteral(f.text, l); err != nil {
		return nil, err
	}
	return &cmpExpr{field: f.text, op: op.text, lit: l}, nil
}

func (p *parser) parseLiteral() (literal, error) {
	t := p.next()
	switch t.kind {
	case tNumber:
		return literal{num: t.num, isNum: true}, nil
	case tIdent:
		return literal{ident: t.text}, nil
	}
	return literal{}, fmt.Errorf("flightql: expected a literal at offset %d, got %q", t.pos, t.text)
}

// ---------------------------------------------------------------------------
// Stages

// value is the pipeline's intermediate state: exactly one of the fields is
// live after each stage.
type value struct {
	recs   []flight.Rec
	groups []flightql.Group
	count  *uint64
	state  *replay.State
	lines  []replay.LineState
	cores  []replay.CoreState
	assert *flightql.AssertResult
	// recsLive distinguishes "records stage produced zero records" from
	// "no records in the pipeline".
	recsLive bool
}

type stage interface {
	apply(v *value, env *flightql.Env) error
}

type filterStage struct{ e expr }

func (s *filterStage) apply(v *value, env *flightql.Env) error {
	if !v.recsLive {
		return fmt.Errorf("flightql: filter needs records (use it before group/at stages)")
	}
	var out []flight.Rec
	for i := range v.recs {
		ok, err := s.e.eval(recGetter(&v.recs[i]))
		if err != nil {
			return err
		}
		if ok {
			out = append(out, v.recs[i])
		}
	}
	v.recs = out
	return nil
}

type groupStage struct {
	fields []string
	aggs   []aggKind
}

type groupAcc struct {
	key    []flightql.KeyPart
	nums   []int64
	count  uint64
	sumDur uint64
	maxDur uint64
	hist   map[int]uint64
}

func (s *groupStage) apply(v *value, env *flightql.Env) error {
	if !v.recsLive {
		return fmt.Errorf("flightql: group by needs records")
	}
	wantHist := false
	for _, a := range s.aggs {
		if a == aggHist {
			wantHist = true
		}
	}
	accs := map[string]*groupAcc{}
	for i := range v.recs {
		r := &v.recs[i]
		g := recGetter(r)
		var kb strings.Builder
		parts := make([]flightql.KeyPart, len(s.fields))
		nums := make([]int64, len(s.fields))
		for fi, f := range s.fields {
			n, _ := g(f)
			nums[fi] = n
			parts[fi] = flightql.KeyPart{Field: f, Value: displayValue(f, n)}
			kb.WriteString(parts[fi].Value)
			kb.WriteByte(0)
		}
		acc := accs[kb.String()]
		if acc == nil {
			acc = &groupAcc{key: parts, nums: nums}
			if wantHist {
				acc.hist = map[int]uint64{}
			}
			accs[kb.String()] = acc
		}
		acc.count++
		d := uint64(r.Dur)
		acc.sumDur += d
		if d > acc.maxDur {
			acc.maxDur = d
		}
		if wantHist {
			acc.hist[bits.Len64(d)]++
		}
	}
	list := make([]*groupAcc, 0, len(accs))
	for _, a := range accs {
		list = append(list, a)
	}
	sort.Slice(list, func(i, j int) bool {
		for k := range list[i].nums {
			if list[i].nums[k] != list[j].nums[k] {
				return list[i].nums[k] < list[j].nums[k]
			}
		}
		return false
	})
	v.groups = make([]flightql.Group, 0, len(list))
	for _, a := range list {
		grp := flightql.Group{Key: a.key, Count: a.count}
		for _, ag := range s.aggs {
			switch ag {
			case aggSum:
				sum := a.sumDur
				grp.SumDur = &sum
			case aggMean:
				m := 0.0
				if a.count > 0 {
					m = float64(a.sumDur) / float64(a.count)
				}
				grp.MeanDur = &m
			case aggMax:
				mx := a.maxDur
				grp.MaxDur = &mx
			case aggHist:
				var ks []int
				for b := range a.hist {
					ks = append(ks, b)
				}
				sort.Ints(ks)
				for _, b := range ks {
					up := uint64(0)
					if b > 0 {
						up = 1<<uint(b) - 1
					}
					grp.HistDur = append(grp.HistDur, flightql.HistBucket{Le: up, N: a.hist[b]})
				}
			}
		}
		v.groups = append(v.groups, grp)
	}
	v.recs, v.recsLive = nil, false
	return nil
}

// displayValue renders a field value for group keys and tables: kind names,
// hex lines, true/false fp, decimal otherwise.
func displayValue(field string, n int64) string {
	switch field {
	case "kind":
		return flight.Kind(n).String()
	case "line":
		return fmt.Sprintf("0x%x", uint64(n))
	case "fp":
		if n != 0 {
			return "true"
		}
		return "false"
	case "status":
		return replay.Status(n).String()
	}
	return strconv.FormatInt(n, 10)
}

type topStage struct {
	k  int
	by aggKind
}

func (s *topStage) apply(v *value, env *flightql.Env) error {
	if v.groups == nil {
		return fmt.Errorf("flightql: top needs groups (put it after group by)")
	}
	rank := func(g *flightql.Group) float64 {
		switch s.by {
		case aggSum:
			if g.SumDur != nil {
				return float64(*g.SumDur)
			}
		case aggMean:
			if g.MeanDur != nil {
				return *g.MeanDur
			}
		case aggMax:
			if g.MaxDur != nil {
				return float64(*g.MaxDur)
			}
		default:
			return float64(g.Count)
		}
		return -1 // aggregate not computed by the group stage
	}
	for i := range v.groups {
		if s.by != aggCount && rank(&v.groups[i]) < 0 {
			return fmt.Errorf("flightql: top by %s needs 'agg %s' in the group stage", s.by, s.by)
		}
	}
	sort.SliceStable(v.groups, func(i, j int) bool {
		ri, rj := rank(&v.groups[i]), rank(&v.groups[j])
		if ri != rj {
			return ri > rj
		}
		return false // stable: keep the group stage's key order for ties
	})
	if len(v.groups) > s.k {
		v.groups = v.groups[:s.k]
	}
	return nil
}

type countStage struct{}

func (s *countStage) apply(v *value, env *flightql.Env) error {
	n, err := pipelineCount(v)
	if err != nil {
		return err
	}
	*v = value{count: &n}
	return nil
}

func pipelineCount(v *value) (uint64, error) {
	switch {
	case v.recsLive:
		return uint64(len(v.recs)), nil
	case v.groups != nil:
		return uint64(len(v.groups)), nil
	case v.lines != nil:
		return uint64(len(v.lines)), nil
	case v.cores != nil:
		return uint64(len(v.cores)), nil
	case v.count != nil:
		return *v.count, nil
	}
	return 0, fmt.Errorf("flightql: nothing to count here")
}

type expectStage struct {
	agg  aggKind
	op   string
	want int64
}

func (s *expectStage) apply(v *value, env *flightql.Env) error {
	var got float64
	switch s.agg {
	case aggCount:
		n, err := pipelineCount(v)
		if err != nil {
			return err
		}
		got = float64(n)
	default:
		if !v.recsLive {
			return fmt.Errorf("flightql: expect %s needs records", s.agg)
		}
		var sum, max uint64
		for i := range v.recs {
			d := uint64(v.recs[i].Dur)
			sum += d
			if d > max {
				max = d
			}
		}
		switch s.agg {
		case aggSum:
			got = float64(sum)
		case aggMax:
			got = float64(max)
		case aggMean:
			if len(v.recs) > 0 {
				got = float64(sum) / float64(len(v.recs))
			}
		}
	}
	want := float64(s.want)
	var pass bool
	switch s.op {
	case "==":
		pass = got == want
	case "!=":
		pass = got != want
	case "<":
		pass = got < want
	case "<=":
		pass = got <= want
	case ">":
		pass = got > want
	case ">=":
		pass = got >= want
	}
	*v = value{assert: &flightql.AssertResult{
		Expr: fmt.Sprintf("%s %s %d", s.agg, s.op, s.want),
		Got:  got,
		Pass: pass,
	}}
	return nil
}

type showKind int

const (
	showState showKind = iota
	showCores
	showLines
)

type atStage struct {
	cycle sim.Time
	show  showKind
	where expr
}

func (s *atStage) apply(v *value, env *flightql.Env) error {
	if !v.recsLive {
		return fmt.Errorf("flightql: at cycle needs records (it replays the stream)")
	}
	st := replay.At(v.recs, env.Cores, s.cycle)
	*v = value{}
	switch s.show {
	case showState:
		v.state = st
	case showCores:
		for i := range st.Cores {
			if s.where != nil {
				ok, err := s.where.eval(coreGetter(&st.Cores[i]))
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			v.cores = append(v.cores, st.Cores[i])
		}
		if v.cores == nil {
			v.cores = []replay.CoreState{}
		}
	case showLines:
		for i := range st.Lines {
			if s.where != nil {
				ok, err := s.where.eval(lineGetter(&st.Lines[i]))
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			v.lines = append(v.lines, st.Lines[i])
		}
		if v.lines == nil {
			v.lines = []replay.LineState{}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Running

// Run executes the pipeline over a record stream (flight Snapshot order).
func (q *refQuery) Run(recs []flight.Rec) (*flightql.Result, error) {
	return q.RunEnv(recs, flightql.Env{})
}

// RunEnv is Run with an explicit environment.
func (q *refQuery) RunEnv(recs []flight.Rec, env flightql.Env) (*flightql.Result, error) {
	v := &value{recs: recs, recsLive: true}
	for _, st := range q.stages {
		if err := st.apply(v, &env); err != nil {
			return nil, err
		}
	}
	return v.result(), nil
}

// refRun parses and executes src in one step.
func refRun(src string, recs []flight.Rec) (*flightql.Result, error) {
	q, err := refParse(src)
	if err != nil {
		return nil, err
	}
	return q.Run(recs)
}

func (v *value) result() *flightql.Result {
	switch {
	case v.assert != nil:
		return &flightql.Result{Kind: "assert", Assert: v.assert}
	case v.count != nil:
		return &flightql.Result{Kind: "count", Count: v.count}
	case v.state != nil:
		return &flightql.Result{Kind: "state", State: v.state}
	case v.lines != nil:
		return &flightql.Result{Kind: "lines", Lines: v.lines}
	case v.cores != nil:
		return &flightql.Result{Kind: "cores", Cores: v.cores}
	case v.groups != nil:
		return &flightql.Result{Kind: "groups", Groups: v.groups}
	}
	out := &flightql.Result{Kind: "records", Records: []flightql.RecView{}}
	for i := range v.recs {
		out.Records = append(out.Records, refViewRec(&v.recs[i]))
	}
	return out
}

// refViewRec renders one flight record as query results and the observatory's
// /flight endpoint show it.
func refViewRec(r *flight.Rec) flightql.RecView {
	rv := flightql.RecView{
		Seq:  r.Seq,
		At:   uint64(r.At),
		Dur:  uint64(r.Dur),
		Core: int(r.Core),
		Peer: int(r.Peer),
		Kind: r.Kind.String(),
		Aux:  r.Aux & flight.AuxMask,
		FP:   r.Aux&flight.AuxFP != 0,
	}
	if r.Line != 0 {
		rv.Line = fmt.Sprintf("0x%x", uint64(r.Line))
	}
	return rv
}
