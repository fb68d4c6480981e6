package sparql

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF    tokenKind = iota
	tokIRI              // <http://...>
	tokPName            // prefix:local (or prefix: for PREFIX declarations)
	tokVar              // ?name or $name
	tokString           // "..." (unescaped value)
	tokNumber           // integer or decimal lexical form
	tokName             // bare name: keyword or function
	tokLang             // @tag after a string (tag without '@')
	tokPunct            // punctuation / operator
)

type token struct {
	kind tokenKind
	text string // token value (IRI without brackets, var without '?', ...)
	pos  int    // byte offset, for error messages
}

type lexer struct {
	src  string
	i    int
	toks []token
}

// lex tokenizes an entire query up front.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return errAt(l.src, l.i, format, args...)
}

// errAt is a syntax error at byte pos of src, reported by its line: lines
// are counted only when an error needs one.
func errAt(src string, pos int, format string, args ...any) error {
	return fmt.Errorf("sparql: line %d: %s", 1+strings.Count(src[:pos], "\n"), fmt.Sprintf(format, args...))
}

func (l *lexer) skipSpaceAndComments() {
	for l.i < len(l.src) {
		c := l.src[l.i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.i++
		case c == '#':
			for l.i < len(l.src) && l.src[l.i] != '\n' {
				l.i++
			}
		default:
			return
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.i >= len(l.src) {
		return token{kind: tokEOF, pos: l.i}, nil
	}
	start := l.i
	c := l.src[l.i]
	switch {
	case c == '<':
		// IRI if a '>' occurs before any whitespace; otherwise '<' / '<='.
		if j := l.scanIRIEnd(); j > 0 {
			iri := l.src[l.i+1 : j]
			l.i = j + 1
			return token{tokIRI, iri, start}, nil
		}
		if l.i+1 < len(l.src) && l.src[l.i+1] == '=' {
			l.i += 2
			return token{tokPunct, "<=", start}, nil
		}
		l.i++
		return token{tokPunct, "<", start}, nil
	case c == '?' || c == '$':
		j := l.i + 1
		for j < len(l.src) && isNameChar(l.src[j]) {
			j++
		}
		if j == l.i+1 {
			return token{}, l.errf("empty variable name")
		}
		name := l.src[l.i+1 : j]
		l.i = j
		return token{tokVar, name, start}, nil
	case c == '"':
		s, err := l.scanString()
		if err != nil {
			return token{}, err
		}
		return token{tokString, s, start}, nil
	case c >= '0' && c <= '9':
		j := l.i
		for j < len(l.src) && (l.src[j] >= '0' && l.src[j] <= '9') {
			j++
		}
		if j < len(l.src) && l.src[j] == '.' && j+1 < len(l.src) && l.src[j+1] >= '0' && l.src[j+1] <= '9' {
			j++
			for j < len(l.src) && l.src[j] >= '0' && l.src[j] <= '9' {
				j++
			}
		}
		num := l.src[l.i:j]
		l.i = j
		return token{tokNumber, num, start}, nil
	case isNameStart(c):
		j := l.i
		for j < len(l.src) && isNameChar(l.src[j]) {
			j++
		}
		name := l.src[l.i:j]
		l.i = j
		// Prefixed name: name ':' local
		if l.i < len(l.src) && l.src[l.i] == ':' {
			l.i++
			k := l.i
			for k < len(l.src) && isLocalChar(l.src, k) {
				k++
			}
			local := l.src[l.i:k]
			l.i = k
			return token{tokPName, name + ":" + local, start}, nil
		}
		return token{tokName, name, start}, nil
	case c == '@':
		// Language tag: name characters and '-'.
		j := l.i + 1
		for j < len(l.src) && (isNameChar(l.src[j]) || l.src[j] == '-') {
			j++
		}
		if j == l.i+1 {
			return token{}, l.errf("empty language tag")
		}
		tag := l.src[l.i+1 : j]
		l.i = j
		return token{tokLang, tag, start}, nil
	case c == ':':
		// Default-prefix name ":local"
		l.i++
		k := l.i
		for k < len(l.src) && isLocalChar(l.src, k) {
			k++
		}
		local := l.src[l.i:k]
		l.i = k
		return token{tokPName, ":" + local, start}, nil
	}
	// Multi-char operators.
	for _, op := range []string{"^^", "&&", "||", "!=", ">=", "<="} {
		if strings.HasPrefix(l.src[l.i:], op) {
			l.i += len(op)
			return token{tokPunct, op, start}, nil
		}
	}
	switch c {
	case '{', '}', '(', ')', '.', ';', ',', '=', '>', '!', '+', '-', '*', '/':
		l.i++
		return token{tokPunct, string(c), start}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

// scanIRIEnd returns the index of the closing '>' if the text starting at
// l.i is an IRIREF (no whitespace before '>'), else 0.
func (l *lexer) scanIRIEnd() int {
	for j := l.i + 1; j < len(l.src); j++ {
		switch l.src[j] {
		case '>':
			return j
		case ' ', '\t', '\n', '\r', '<', '"', '{', '}':
			return 0
		}
	}
	return 0
}

func (l *lexer) scanString() (string, error) {
	j := l.i + 1
	for j < len(l.src) {
		if l.src[j] == '\\' {
			j += 2
			continue
		}
		if l.src[j] == '"' {
			raw := l.src[l.i+1 : j]
			l.i = j + 1
			s, err := unescapeSPARQL(raw)
			if err != nil {
				return "", l.errf("%v", err)
			}
			return s, nil
		}
		if l.src[j] == '\n' {
			break
		}
		j++
	}
	return "", l.errf("unterminated string literal")
}

func unescapeSPARQL(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling escape")
		}
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '"':
			b.WriteByte('"')
		case '\'':
			b.WriteByte('\'')
		case '\\':
			b.WriteByte('\\')
		default:
			return "", fmt.Errorf("unknown escape \\%c", s[i])
		}
	}
	return b.String(), nil
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9'
}

// isLocalChar reports whether src[k] may continue a prefixed-name local
// part. A '.' is included only when followed by another local char, so that
// the triple terminator after a pname is not swallowed.
func isLocalChar(src string, k int) bool {
	c := src[k]
	if isNameChar(c) || c == '-' {
		return true
	}
	if c == '.' {
		return k+1 < len(src) && (isNameChar(src[k+1]) || src[k+1] == '-')
	}
	return false
}
