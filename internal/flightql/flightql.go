// Package flightql is a small, deterministic query language over flight
// records and replayed machine state. A query is a pipeline of stages
// separated by '|':
//
//	filter kind == abort-enemy && core == 3
//	filter at >= 1000 && at <= 3000 | group by line agg count, sum(dur)
//	filter kind == cst-set | group by line | top 3 by count
//	filter kind == commit | expect count == 80
//	at cycle 48210 show lines where writers > 1
//
// Stages:
//
//	filter EXPR                    keep records matching EXPR
//	group by F[,F...] [agg A,...]  aggregate records per key (count, sum(dur),
//	                               mean(dur), max(dur), hist(dur))
//	top K by AGG                   keep the K heaviest groups
//	count                          collapse to a scalar count
//	expect AGG OP N                assert an aggregate (powers flightql.Assert)
//	at cycle N show state|cores|lines [where EXPR]
//	                               replay the (possibly filtered) stream to
//	                               cycle N and show reconstructed state
//
// Record fields: core, peer, kind, line, aux, fp, seq, at (alias cycle),
// dur. Replayed line fields: line, writers, readers, last-writer,
// conflicts. Replayed core fields: core, status, attempt, consec-aborts,
// sig-lines, commits, aborts, escalations, trips. Kind and status compare
// against their kebab-case names (filter kind == cst-set); line literals
// may be hex (0x40).
//
// Evaluation is pure and deterministic: the same query over the same
// records yields byte-identical canonical JSON (WriteJSON). The engine only
// reads snapshotted data — nothing here runs on the record hot path. The
// parser resolves every field name and literal, so a run reads rows through
// field ids and allocates per result, not per record.
package flightql

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"flextm/internal/flight"
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
// Fields

// fieldID is a field name resolved by the parser. A predicate or group key
// reads a row through it with one integer switch, never by name.
type fieldID uint8

const (
	fCore fieldID = iota
	fPeer
	fKind
	fLine
	fAux
	fFP
	fSeq
	fAt
	fDur
	fStatus
	fAttempt
	fConsecAborts
	fSigLines
	fCommits
	fAborts
	fEscalations
	fTrips
	fWriters
	fReaders
	fLastWriter
	fConflicts
)

// The field names of each row type: flight records, and the cores and
// lines a replay reconstructs.
var (
	recFields = map[string]fieldID{
		"core": fCore, "peer": fPeer, "kind": fKind, "line": fLine, "aux": fAux,
		"fp": fFP, "seq": fSeq, "at": fAt, "cycle": fAt, "dur": fDur,
	}
	lineFields = map[string]fieldID{
		"line": fLine, "writers": fWriters, "readers": fReaders,
		"last-writer": fLastWriter, "conflicts": fConflicts,
	}
	coreFields = map[string]fieldID{
		"core": fCore, "status": fStatus, "attempt": fAttempt,
		"consec-aborts": fConsecAborts, "sig-lines": fSigLines, "commits": fCommits,
		"aborts": fAborts, "escalations": fEscalations, "trips": fTrips,
	}
)

// row is what a predicate tests: a record, a replayed core or a replayed
// line, read through the ids of its own row type's fields.
type row interface {
	field(f fieldID) int64
}

type recRow flight.Rec

func (r *recRow) field(f fieldID) int64 {
	switch f {
	case fCore:
		return int64(r.Core)
	case fPeer:
		return int64(r.Peer)
	case fKind:
		return int64(r.Kind)
	case fLine:
		return int64(r.Line)
	case fAux:
		return int64(r.Aux & flight.AuxMask)
	case fFP:
		if r.Aux&flight.AuxFP != 0 {
			return 1
		}
		return 0
	case fSeq:
		return int64(r.Seq)
	case fAt:
		return int64(r.At)
	case fDur:
		return int64(r.Dur)
	}
	panic("flightql: not a record field")
}

type coreRow replay.CoreState

func (c *coreRow) field(f fieldID) int64 {
	switch f {
	case fCore:
		return int64(c.Core)
	case fStatus:
		return int64(c.Status)
	case fAttempt:
		return int64(c.Attempt)
	case fConsecAborts:
		return int64(c.ConsecAborts)
	case fSigLines:
		return int64(c.SigLines)
	case fCommits:
		return int64(c.Commits)
	case fAborts:
		return int64(c.Aborts)
	case fEscalations:
		return int64(c.Escalations)
	case fTrips:
		return int64(c.Trips)
	}
	panic("flightql: not a core field")
}

type lineRow replay.LineState

func (l *lineRow) field(f fieldID) int64 {
	switch f {
	case fLine:
		return int64(l.Line)
	case fWriters:
		return int64(len(l.Writers))
	case fReaders:
		return int64(len(l.Readers))
	case fLastWriter:
		return int64(l.LastWriter)
	case fConflicts:
		return int64(l.Conflicts)
	}
	panic("flightql: not a line field")
}

// ---------------------------------------------------------------------------
// Expressions

type literal struct {
	num   int64
	ident string
	isNum bool
}

// cmpOp is a comparison operator.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var opNames = [...]string{opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">="}

func (o cmpOp) String() string { return opNames[o] }

// opByName maps a lexed operator to its cmpOp.
func opByName(text string) cmpOp {
	for o, name := range opNames {
		if name == text {
			return cmpOp(o)
		}
	}
	panic("flightql: lexer produced unknown operator " + text)
}

// holds reports whether a o b.
func holds[T int64 | float64](o cmpOp, a, b T) bool {
	switch o {
	case opEq:
		return a == b
	case opNe:
		return a != b
	case opLt:
		return a < b
	case opLe:
		return a <= b
	case opGt:
		return a > b
	}
	return a >= b
}

type expr interface {
	eval(r row) bool
}

type binExpr struct {
	and  bool
	l, r expr
}

func (e *binExpr) eval(r row) bool {
	if e.and {
		return e.l.eval(r) && e.r.eval(r)
	}
	return e.l.eval(r) || e.r.eval(r)
}

type notExpr struct{ e expr }

func (e *notExpr) eval(r row) bool { return !e.e.eval(r) }

// cmpExpr compares a field against a literal resolved at parse time.
type cmpExpr struct {
	field fieldID
	op    cmpOp
	lit   int64
}

func (e *cmpExpr) eval(r row) bool {
	return holds(e.op, r.field(e.field), e.lit)
}

// inExpr tests a field for membership in a literal list resolved at parse
// time.
type inExpr struct {
	field fieldID
	set   []int64
}

func (e *inExpr) eval(r row) bool {
	return slices.Contains(e.set, r.field(e.field))
}

// resolveLiteral maps a literal to the numeric domain of the field it is
// compared against: kind names for kind, status names for status,
// true/false for fp. name is the field as the query spells it.
func resolveLiteral(name string, f fieldID, l literal) (int64, error) {
	if l.isNum {
		return l.num, nil
	}
	switch f {
	case fKind:
		if k, ok := kindByName(l.ident); ok {
			return int64(k), nil
		}
		return 0, fmt.Errorf("flightql: unknown record kind %q", l.ident)
	case fStatus:
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
	case fFP:
		switch l.ident {
		case "true":
			return 1, nil
		case "false":
			return 0, nil
		}
		return 0, fmt.Errorf("flightql: fp compares against true/false, not %q", l.ident)
	}
	return 0, fmt.Errorf("flightql: field %q needs a numeric literal, got %q", name, l.ident)
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

// Query is a parsed pipeline, ready to run any number of times.
type Query struct {
	src    string
	stages []stage
}

// Source returns the original query text.
func (q *Query) Source() string { return q.src }

// Parse compiles a query. The returned Query is immutable and safe for
// concurrent Run calls.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q := &Query{src: src}
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
		f, ok := recFields[t.text]
		if t.kind != tIdent || !ok || t.text == "cycle" {
			return nil, fmt.Errorf("flightql: group by: bad field %q at offset %d", t.text, t.pos)
		}
		g.names = append(g.names, t.text)
		g.fields = append(g.fields, f)
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
	return &expectStage{agg: a, op: opByName(t.text), want: n.num}, nil
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
	var fields map[string]fieldID
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

func (p *parser) parseExpr(fields map[string]fieldID) (expr, error) {
	return p.parseOr(fields)
}

func (p *parser) parseOr(fields map[string]fieldID) (expr, error) {
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

func (p *parser) parseAnd(fields map[string]fieldID) (expr, error) {
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

func (p *parser) parseUnary(fields map[string]fieldID) (expr, error) {
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

func (p *parser) parseCmp(fields map[string]fieldID) (expr, error) {
	f := p.next()
	if f.kind != tIdent {
		return nil, fmt.Errorf("flightql: expected a field name at offset %d, got %q", f.pos, f.text)
	}
	id, ok := fields[f.text]
	if !ok {
		return nil, fmt.Errorf("flightql: unknown field %q at offset %d", f.text, f.pos)
	}
	op := p.next()
	if op.kind == tIdent && op.text == "in" {
		if p.next().kind != tLBrack {
			return nil, fmt.Errorf("flightql: 'in' needs [v, ...]")
		}
		e := &inExpr{field: id}
		for {
			l, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			// Bad kind/status names fail here, as after '=='.
			v, err := resolveLiteral(f.text, id, l)
			if err != nil {
				return nil, err
			}
			e.set = append(e.set, v)
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
	v, err := resolveLiteral(f.text, id, l)
	if err != nil {
		return nil, err
	}
	return &cmpExpr{field: id, op: opByName(op.text), lit: v}, nil
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
	groups []Group
	count  *uint64
	state  *replay.State
	lines  []replay.LineState
	cores  []replay.CoreState
	assert *AssertResult
	// recsLive distinguishes "records stage produced zero records" from
	// "no records in the pipeline".
	recsLive bool
}

type stage interface {
	apply(v *value, env *Env) error
}

type filterStage struct{ e expr }

func (s *filterStage) apply(v *value, env *Env) error {
	if !v.recsLive {
		return fmt.Errorf("flightql: filter needs records (use it before group/at stages)")
	}
	// Mark the matches first, so the kept records take one allocation of
	// their exact size.
	keep := make([]uint64, (len(v.recs)+63)/64)
	n := 0
	for i := range v.recs {
		if s.e.eval((*recRow)(&v.recs[i])) {
			keep[i/64] |= 1 << (i % 64)
			n++
		}
	}
	out := make([]flight.Rec, 0, n)
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			out = append(out, v.recs[w*64+bits.TrailingZeros64(word)])
		}
	}
	v.recs = out
	return nil
}

type groupStage struct {
	names  []string // the key fields as the query spells them
	fields []fieldID
	aggs   []aggKind
}

type groupAcc struct {
	key    []KeyPart
	nums   []int64
	count  uint64
	sumDur uint64
	maxDur uint64
	// hist[b] counts durations of bit length b.
	hist *[65]uint64
}

func (s *groupStage) apply(v *value, env *Env) error {
	if !v.recsLive {
		return fmt.Errorf("flightql: group by needs records")
	}
	wantHist := false
	for _, a := range s.aggs {
		if a == aggHist {
			wantHist = true
		}
	}
	// Groups key on the raw field values, packed into one reused buffer:
	// looking a record's group up allocates nothing, and a group's key
	// parts are rendered once, when it first appears.
	accs := map[string]*groupAcc{}
	key := make([]byte, 8*len(s.fields))
	for i := range v.recs {
		r := (*recRow)(&v.recs[i])
		for fi, f := range s.fields {
			binary.LittleEndian.PutUint64(key[8*fi:], uint64(r.field(f)))
		}
		acc := accs[string(key)]
		if acc == nil {
			acc = s.newAcc(r, wantHist)
			accs[string(key)] = acc
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
	slices.SortFunc(list, func(a, b *groupAcc) int { return slices.Compare(a.nums, b.nums) })
	v.groups = make([]Group, 0, len(list))
	for _, a := range list {
		grp := Group{Key: a.key, Count: a.count}
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
				for b, n := range a.hist {
					if n == 0 {
						continue
					}
					up := uint64(0)
					if b > 0 {
						up = 1<<uint(b) - 1
					}
					grp.HistDur = append(grp.HistDur, HistBucket{Le: up, N: n})
				}
			}
		}
		v.groups = append(v.groups, grp)
	}
	v.recs, v.recsLive = nil, false
	return nil
}

// newAcc starts the group of record r.
func (s *groupStage) newAcc(r *recRow, wantHist bool) *groupAcc {
	acc := &groupAcc{key: make([]KeyPart, len(s.fields)), nums: make([]int64, len(s.fields))}
	for fi, f := range s.fields {
		n := r.field(f)
		acc.nums[fi] = n
		acc.key[fi] = KeyPart{Field: s.names[fi], Value: displayValue(f, n)}
	}
	if wantHist {
		acc.hist = new([65]uint64)
	}
	return acc
}

// displayValue renders a field value for group keys and tables: kind names,
// hex lines, true/false fp, decimal otherwise.
func displayValue(f fieldID, n int64) string {
	switch f {
	case fKind:
		return flight.Kind(n).String()
	case fLine:
		return fmt.Sprintf("0x%x", uint64(n))
	case fFP:
		if n != 0 {
			return "true"
		}
		return "false"
	case fStatus:
		return replay.Status(n).String()
	}
	return strconv.FormatInt(n, 10)
}

type topStage struct {
	k  int
	by aggKind
}

func (s *topStage) apply(v *value, env *Env) error {
	if v.groups == nil {
		return fmt.Errorf("flightql: top needs groups (put it after group by)")
	}
	rank := func(g *Group) float64 {
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

func (s *countStage) apply(v *value, env *Env) error {
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
	op   cmpOp
	want int64
}

func (s *expectStage) apply(v *value, env *Env) error {
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
	*v = value{assert: &AssertResult{
		Expr: fmt.Sprintf("%s %s %d", s.agg, s.op, s.want),
		Got:  got,
		Pass: holds(s.op, got, float64(s.want)),
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

func (s *atStage) apply(v *value, env *Env) error {
	if !v.recsLive {
		return fmt.Errorf("flightql: at cycle needs records (it replays the stream)")
	}
	st := replay.At(v.recs, env.Cores, s.cycle)
	*v = value{}
	switch s.show {
	case showState:
		v.state = st
	case showCores:
		// The state is this stage's own: keep the matching rows in place.
		v.cores = st.Cores[:0]
		for i := range st.Cores {
			if s.where != nil && !s.where.eval((*coreRow)(&st.Cores[i])) {
				continue
			}
			v.cores = append(v.cores, st.Cores[i])
		}
	case showLines:
		v.lines = st.Lines[:0]
		for i := range st.Lines {
			if s.where != nil && !s.where.eval((*lineRow)(&st.Lines[i])) {
				continue
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

// Env parameterizes a run.
type Env struct {
	// Cores sizes replay's per-core tables (0 derives it from the records).
	Cores int
}

// Run executes the pipeline over a record stream (flight Snapshot order).
func (q *Query) Run(recs []flight.Rec) (*Result, error) {
	return q.RunEnv(recs, Env{})
}

// RunEnv is Run with an explicit environment.
func (q *Query) RunEnv(recs []flight.Rec, env Env) (*Result, error) {
	v := &value{recs: recs, recsLive: true}
	for _, st := range q.stages {
		if err := st.apply(v, &env); err != nil {
			return nil, err
		}
	}
	return v.result(), nil
}

// Run parses and executes src in one step.
func Run(src string, recs []flight.Rec) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return q.Run(recs)
}

func (v *value) result() *Result {
	switch {
	case v.assert != nil:
		return &Result{Kind: "assert", Assert: v.assert}
	case v.count != nil:
		return &Result{Kind: "count", Count: v.count}
	case v.state != nil:
		return &Result{Kind: "state", State: v.state}
	case v.lines != nil:
		return &Result{Kind: "lines", Lines: v.lines}
	case v.cores != nil:
		return &Result{Kind: "cores", Cores: v.cores}
	case v.groups != nil:
		return &Result{Kind: "groups", Groups: v.groups}
	}
	out := &Result{Kind: "records", Records: []RecView{}}
	for i := range v.recs {
		out.Records = append(out.Records, ViewRec(&v.recs[i]))
	}
	return out
}

// ViewRec renders one flight record as query results and the observatory's
// /flight endpoint show it.
func ViewRec(r *flight.Rec) RecView {
	rv := RecView{
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
