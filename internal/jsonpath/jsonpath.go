// Package jsonpath parses the JSONPath fragment studied in the paper (§2):
//
//	e ::= $ | e.l | e.* | e..l
//
// plus compatible extensions: descendant wildcard e..*, bracketed selectors
// e['l'] / e["l"] / e[*], array-index selectors e[n] / e..[n] (the paper's
// §6 "array indexing is compatible with our approach" future work), array
// slices e[a:b] / e[a:] / e[:b] (non-negative bounds, unit step), and union
// selectors e['a','b',0,1:3] combining labels, indices and slices in one
// step.
//
// Queries are evaluated under node semantics: the result of a query is the
// set of matched nodes in document order, never a multiset (§2).
package jsonpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Slice matches array entries with Start <= index < End, the JSONPath
// slice selector [start:end] restricted to non-negative bounds and unit
// step. End < 0 means unbounded ([start:]).
type Slice struct {
	Start int
	End   int
}

// Contains reports whether the slice matches index i.
func (s Slice) Contains(i int) bool {
	return i >= s.Start && (s.End < 0 || i < s.End)
}

// Selector is one step of a query. A selector matches an object property
// when its name is listed in Labels, an array entry when its position is
// listed in Indices or covered by Slices, and everything when Wildcard is
// set (the other fields are then empty).
type Selector struct {
	// Descendant marks ..-selectors, which match at any depth below the
	// current node (including its own properties).
	Descendant bool
	// Wildcard matches any direct subdocument (object property or array
	// entry).
	Wildcard bool
	// Labels holds the property names matched, as raw bytes compared
	// verbatim against the document's key bytes. More than one entry
	// represents a union selector.
	Labels [][]byte
	// Indices holds the array positions matched.
	Indices []int
	// Slices holds the array index ranges matched.
	Slices []Slice
}

// MatchesLabel reports whether the selector matches a property named key.
func (s *Selector) MatchesLabel(key []byte) bool {
	if s.Wildcard {
		return true
	}
	for _, l := range s.Labels {
		if bytesEqual(l, key) {
			return true
		}
	}
	return false
}

// MatchesIndex reports whether the selector matches the array entry at i.
func (s *Selector) MatchesIndex(i int) bool {
	if s.Wildcard {
		return true
	}
	for _, v := range s.Indices {
		if v == i {
			return true
		}
	}
	for _, sl := range s.Slices {
		if sl.Contains(i) {
			return true
		}
	}
	return false
}

// SelectsIndices reports whether the selector can match array entries by
// position (indices or slices).
func (s *Selector) SelectsIndices() bool {
	return len(s.Indices)+len(s.Slices) > 0
}

// IsUnion reports whether the selector lists more than one alternative.
func (s *Selector) IsUnion() bool {
	return len(s.Labels)+len(s.Indices)+len(s.Slices) > 1
}

// String renders the selector in canonical form.
func (s Selector) String() string {
	dot, bracket := ".", ""
	if s.Descendant {
		dot, bracket = "..", ".."
	}
	switch {
	case s.Wildcard:
		return dot + "*"
	case !s.IsUnion() && len(s.Labels) == 1 && isBareName(s.Labels[0]):
		return dot + string(s.Labels[0])
	default:
		var parts []string
		for _, l := range s.Labels {
			parts = append(parts, "'"+escapeLabel(l)+"'")
		}
		for _, i := range s.Indices {
			parts = append(parts, strconv.Itoa(i))
		}
		for _, sl := range s.Slices {
			end := ""
			if sl.End >= 0 {
				end = strconv.Itoa(sl.End)
			}
			parts = append(parts, strconv.Itoa(sl.Start)+":"+end)
		}
		return bracket + "[" + strings.Join(parts, ",") + "]"
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Query is a parsed JSONPath expression.
type Query struct {
	Selectors []Selector
	raw       string
}

// Raw returns the original query text.
func (q *Query) Raw() string { return q.raw }

// String renders the query in canonical form.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("$")
	for _, s := range q.Selectors {
		b.WriteString(s.String())
	}
	return b.String()
}

// Labels returns the distinct concrete labels used by the query, in first-
// occurrence order.
func (q *Query) Labels() [][]byte {
	var out [][]byte
	seen := make(map[string]bool)
	for i := range q.Selectors {
		for _, l := range q.Selectors[i].Labels {
			if !seen[string(l)] {
				seen[string(l)] = true
				out = append(out, l)
			}
		}
	}
	return out
}

// ParseError reports a syntax error with its byte offset in the query.
type ParseError struct {
	Query  string
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("jsonpath: %s at offset %d in %q", e.Msg, e.Offset, e.Query)
}

type parser struct {
	input string
	pos   int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Query: p.input, Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses a JSONPath expression.
func Parse(input string) (*Query, error) {
	p := &parser{input: input}
	if !p.eat('$') {
		return nil, p.errf("query must start with '$'")
	}
	q := &Query{raw: input}
	for p.pos < len(p.input) {
		sel, err := p.selector()
		if err != nil {
			return nil, err
		}
		q.Selectors = append(q.Selectors, sel)
	}
	return q, nil
}

// MustParse is Parse that panics on error, for tests and fixed queries.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) eat(c byte) bool {
	if p.pos < len(p.input) && p.input[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peek() byte {
	if p.pos < len(p.input) {
		return p.input[p.pos]
	}
	return 0
}

// found names what the parser stopped at, for its error messages: the next
// byte, or the end of the query.
func (p *parser) found() string {
	if p.pos < len(p.input) {
		return fmt.Sprintf("%q", p.input[p.pos])
	}
	return "end of query"
}

// selector parses one .l / ..l / .* / ..* / [x,...] / ..[x,...] step.
func (p *parser) selector() (Selector, error) {
	var sel Selector
	switch {
	case p.eat('.'):
		if p.eat('.') {
			sel.Descendant = true
			if p.peek() == '[' {
				return p.bracket(sel)
			}
		}
		if p.eat('*') {
			sel.Wildcard = true
			return sel, nil
		}
		name, err := p.bareName()
		if err != nil {
			return sel, err
		}
		sel.Labels = [][]byte{name}
		return sel, nil
	case p.peek() == '[':
		return p.bracket(sel)
	default:
		return sel, p.errf("expected '.' or '[', found %s", p.found())
	}
}

// bracket parses ['l'] / ["l"] / [*] / [n] and comma-separated unions of
// labels and indices after the opening position.
func (p *parser) bracket(sel Selector) (Selector, error) {
	if !p.eat('[') {
		return sel, p.errf("expected '['")
	}
	for {
		p.skipSpaces()
		switch c := p.peek(); {
		case c == '*':
			if len(sel.Labels)+len(sel.Indices) > 0 {
				return sel, p.errf("'*' cannot be part of a union")
			}
			p.pos++
			sel.Wildcard = true
			p.skipSpaces()
			if !p.eat(']') {
				return sel, p.errf("expected ']' after '*'")
			}
			return sel, nil
		case c == '\'' || c == '"':
			label, err := p.quotedLabel(c)
			if err != nil {
				return sel, err
			}
			sel.Labels = append(sel.Labels, label)
		case c >= '0' && c <= '9' || c == ':':
			if err := p.indexOrSlice(&sel); err != nil {
				return sel, err
			}
		case c == '-':
			return sel, p.errf("negative array indices are not supported")
		default:
			return sel, p.errf("expected label, index or '*' in brackets, found %s", p.found())
		}
		p.skipSpaces()
		if p.eat(',') {
			continue
		}
		if !p.eat(']') {
			return sel, p.errf("expected ',' or ']'")
		}
		return sel, nil
	}
}

// indexOrSlice parses n, n:m, n:, :m, or : after skipSpaces.
func (p *parser) indexOrSlice(sel *Selector) error {
	number := func() (int, bool, error) {
		start := p.pos
		for p.pos < len(p.input) && p.input[p.pos] >= '0' && p.input[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == start {
			return 0, false, nil
		}
		n, err := strconv.Atoi(p.input[start:p.pos])
		if err != nil {
			return 0, false, p.errf("bad array index: %v", err)
		}
		return n, true, nil
	}
	lo, hasLo, err := number()
	if err != nil {
		return err
	}
	p.skipSpaces()
	if !p.eat(':') {
		if !hasLo {
			return p.errf("expected index or slice")
		}
		sel.Indices = append(sel.Indices, lo)
		return nil
	}
	p.skipSpaces()
	hi, hasHi, err := number()
	if err != nil {
		return err
	}
	if p.peek() == ':' {
		return p.errf("slice steps are not supported")
	}
	end := -1
	if hasHi {
		end = hi
	}
	sel.Slices = append(sel.Slices, Slice{Start: lo, End: end})
	return nil
}

// quotedLabel parses a single- or double-quoted label with \', \", and \\
// escapes. Other backslash sequences are preserved verbatim, so labels that
// must be escaped in JSON documents (e.g. "a\nb") can be written exactly as
// they appear in the document bytes.
func (p *parser) quotedLabel(quote byte) ([]byte, error) {
	p.pos++ // consume the quote
	var out []byte
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		switch c {
		case quote:
			p.pos++
			return out, nil
		case '\\':
			if p.pos+1 >= len(p.input) {
				return nil, p.errf("unterminated escape in label")
			}
			next := p.input[p.pos+1]
			if next == quote || next == '\\' {
				out = append(out, next)
			} else {
				out = append(out, '\\', next)
			}
			p.pos += 2
		default:
			out = append(out, c)
			p.pos++
		}
	}
	return nil, p.errf("unterminated label")
}

// bareName parses a member name after '.': a nonempty run of name bytes.
func (p *parser) bareName() ([]byte, error) {
	start := p.pos
	for p.pos < len(p.input) && isNameByte(p.input[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, p.errf("expected member name, found %s", p.found())
	}
	return []byte(p.input[start:p.pos]), nil
}

func (p *parser) skipSpaces() {
	for p.pos < len(p.input) && p.input[p.pos] == ' ' {
		p.pos++
	}
}

// isNameByte reports whether b may appear in a bare (unbracketed) member
// name: ASCII letters, digits, '_', '-', '$', and all non-ASCII bytes
// (UTF-8 continuation and lead bytes).
func isNameByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '_' || b == '-' || b == '$':
		return true
	case b >= 0x80:
		return true
	}
	return false
}

func isBareName(label []byte) bool {
	if len(label) == 0 {
		return false
	}
	for _, b := range label {
		if !isNameByte(b) {
			return false
		}
	}
	return true
}

func escapeLabel(label []byte) string {
	var b strings.Builder
	for _, c := range label {
		if c == '\'' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	return b.String()
}
