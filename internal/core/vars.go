package core

import "strings"

// scanVars calls f with the byte range of each ?name or $name variable
// token in SPARQL text, skipping string literals and IRIREFs, so that a
// rename never touches the text of a literal or an IRI. A '<' opens an IRIREF when a '>' closes it before any whitespace or
// '<"{}' (the rule of the query lexer); otherwise it is a comparison and
// the variables after it are scanned.
func scanVars(text string, f func(start, end int)) {
	for i := 0; i < len(text); {
		switch c := text[i]; c {
		case '?', '$':
			j := i + 1
			for j < len(text) && isVarChar(text[j]) {
				j++
			}
			if j > i+1 {
				f(i, j)
			}
			i = j
		case '"', '\'':
			i = stringEnd(text, i)
		case '<':
			i++
			for j := i; j < len(text) && !strings.ContainsRune(" \t\r\n<\"{}", rune(text[j])); j++ {
				if text[j] == '>' {
					i = j + 1
					break
				}
			}
		default:
			i++
		}
	}
}

// stringEnd returns the index just past the string literal opening at
// text[i]: a short or long (”'/""") literal with backslash escapes. An
// unterminated literal runs to the end of the text.
func stringEnd(text string, i int) int {
	delim := text[i : i+1]
	if strings.HasPrefix(text[i:], strings.Repeat(delim, 3)) {
		delim = text[i : i+3]
	}
	for j := i + len(delim); j < len(text); j++ {
		if text[j] == '\\' {
			j++
		} else if strings.HasPrefix(text[j:], delim) {
			return j + len(delim)
		}
	}
	return len(text)
}

func isVarChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// replaceVars returns text with every variable token (sigil and name) that
// with answers for replaced by the answer; the rest of the text is kept
// byte for byte.
func replaceVars(text string, with func(token string) (string, bool)) string {
	var sb strings.Builder
	last := 0
	scanVars(text, func(start, end int) {
		if repl, ok := with(text[start:end]); ok {
			sb.WriteString(text[last:start])
			sb.WriteString(repl)
			last = end
		}
	})
	if last == 0 {
		return text
	}
	sb.WriteString(text[last:])
	return sb.String()
}

// renameText renames variable old to new in SPARQL text, keeping each
// token's ? or $.
func renameText(text, old, new string) string {
	return replaceVars(text, func(token string) (string, bool) {
		if token[1:] != old {
			return "", false
		}
		return token[:1] + new, true
	})
}

// varsWithin reports whether every variable of SPARQL text satisfies in.
func varsWithin(text string, in func(name string) bool) bool {
	ok := true
	scanVars(text, func(start, end int) { ok = ok && in(text[start+1:end]) })
	return ok
}
