package sparql

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf8"

	"rdfframes/internal/rdf"
)

// Reference implementations the codec tests compare against. They share no
// code with the codec: the encoder is the row-at-a-time whole-body encoder
// the streaming one replaced, and the decoder reads the document with
// encoding/json and applies the format's rules to the generic tree.

// referenceMarshalJSON is the encoder of the commit before the compact
// form: one buffer, every cell rendered from its term.
func referenceMarshalJSON(r *Results) []byte {
	buf := []byte(`{"head":{"vars":[`)
	for i, v := range r.Vars {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = refAppendString(buf, v)
	}
	buf = append(buf, `]},"results":{"bindings":[`...)
	for i, row := range r.Rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		first := true
		for j, v := range r.Vars {
			if j >= len(row) || !row[j].IsBound() {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = refAppendString(buf, v)
			buf = append(buf, ':')
			t := row[j]
			switch t.Kind {
			case rdf.IRIKind:
				buf = append(buf, `{"type":"uri","value":`...)
				buf = refAppendString(buf, t.Value)
			case rdf.BlankKind:
				buf = append(buf, `{"type":"bnode","value":`...)
				buf = refAppendString(buf, t.Value)
			default:
				buf = append(buf, `{"type":"literal","value":`...)
				buf = refAppendString(buf, t.Value)
				if t.Lang != "" {
					buf = append(buf, `,"xml:lang":`...)
					buf = refAppendString(buf, t.Lang)
				}
				if t.Datatype != "" {
					buf = append(buf, `,"datatype":`...)
					buf = refAppendString(buf, t.Datatype)
				}
			}
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
	}
	return append(buf, `]}}`...)
}

func refAppendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"', c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, `\n`...)
		case c == '\r':
			buf = append(buf, `\r`...)
		case c == '\t':
			buf = append(buf, `\t`...)
		case c < 0x20:
			buf = append(buf, fmt.Sprintf(`\u%04x`, c)...)
		case c < utf8.RuneSelf:
			buf = append(buf, c)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			buf = utf8.AppendRune(buf, r) // U+FFFD for an invalid byte
			i += size
			continue
		}
		i++
	}
	return append(buf, '"')
}

// refMember is one object member in document order; encoding/json's own
// map decoding would drop duplicates, which the format's rules mention.
type refMember struct {
	key string
	val any // string, json.Number, bool, nil, []any or []refMember
}

// referenceReadJSON decodes a results document the slow, obvious way:
// encoding/json decides well-formedness and tokenizes, then the SPARQL
// results schema is applied to the tree.
func referenceReadJSON(data []byte) (*Results, error) {
	if !json.Valid(data) {
		return nil, errors.New("not valid JSON")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	doc, err := refTree(dec)
	if err != nil {
		return nil, err
	}
	top, ok := doc.([]refMember)
	if !ok {
		return nil, errors.New("document is not an object")
	}
	headVal, headSeen, err := refOnce(top, "head")
	if err != nil {
		return nil, err
	}
	resultsVal, resultsSeen, err := refOnce(top, "results")
	if err != nil {
		return nil, err
	}
	res := &Results{Rows: [][]rdf.Term{}}
	if headSeen {
		head, ok := headVal.([]refMember)
		if !ok {
			return nil, errors.New("head is not an object")
		}
		varsVal, varsSeen, err := refOnce(head, "vars")
		if err != nil {
			return nil, err
		}
		if varsSeen {
			list, ok := varsVal.([]any)
			if !ok {
				return nil, errors.New("vars is not an array")
			}
			res.Vars = []string{}
			for _, v := range list {
				name, ok := v.(string)
				if !ok {
					return nil, errors.New("vars element is not a string")
				}
				res.Vars = append(res.Vars, name)
			}
		}
	}
	if !resultsSeen {
		return res, nil
	}
	results, ok := resultsVal.([]refMember)
	if !ok {
		return nil, errors.New("results is not an object")
	}
	bindingsVal, bindingsSeen, err := refOnce(results, "bindings")
	if err != nil || !bindingsSeen {
		return res, err
	}
	bindings, ok := bindingsVal.([]any)
	if !ok {
		return nil, errors.New("bindings is not an array")
	}
	col := map[string]int{}
	for i, v := range res.Vars {
		col[v] = i // a repeated name addresses its last column
	}
	for _, b := range bindings {
		binding, ok := b.([]refMember)
		if !ok {
			return nil, errors.New("binding is not an object")
		}
		row := make([]rdf.Term, len(res.Vars))
		for _, m := range binding {
			j, known := col[m.key]
			if !known {
				continue
			}
			if row[j], err = refTerm(m.val); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// refTree reads one value from dec as an ordered tree.
func refTree(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return tok, nil
	}
	if delim == '[' {
		list := []any{}
		for dec.More() {
			v, err := refTree(dec)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
		_, err := dec.Token() // the closing bracket
		return list, err
	}
	members := []refMember{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, err
		}
		v, err := refTree(dec)
		if err != nil {
			return nil, err
		}
		members = append(members, refMember{key: key.(string), val: v})
	}
	_, err = dec.Token()
	return members, err
}

// refOnce finds the member named key, which may appear at most once.
func refOnce(obj []refMember, key string) (val any, seen bool, err error) {
	for _, m := range obj {
		if m.key != key {
			continue
		}
		if seen {
			return nil, false, fmt.Errorf("duplicate %q member", key)
		}
		val, seen = m.val, true
	}
	return val, seen, nil
}

// refTerm applies the term-object rules: the four known members must be
// strings wherever they appear, the last of each wins, anything else is
// ignored.
func refTerm(v any) (rdf.Term, error) {
	obj, ok := v.([]refMember)
	if !ok {
		return rdf.Term{}, errors.New("term is not an object")
	}
	field := map[string]string{}
	for _, m := range obj {
		switch m.key {
		case "type", "value", "xml:lang", "datatype":
			s, ok := m.val.(string)
			if !ok {
				return rdf.Term{}, fmt.Errorf("term member %q is not a string", m.key)
			}
			field[m.key] = s
		}
	}
	switch field["type"] {
	case "uri":
		return rdf.NewIRI(field["value"]), nil
	case "bnode":
		return rdf.NewBlank(field["value"]), nil
	case "literal", "typed-literal":
		switch {
		case field["xml:lang"] != "":
			return rdf.NewLangLiteral(field["value"], field["xml:lang"]), nil
		case field["datatype"] != "":
			return rdf.NewTypedLiteral(field["value"], field["datatype"]), nil
		}
		return rdf.NewLiteral(field["value"]), nil
	}
	return rdf.Term{}, fmt.Errorf("unknown term type %q", field["type"])
}

// sameResults reports whether two decodes agree: the same columns, and the
// same terms in the same cells.
func sameResults(a, b *Results) bool {
	if (a.Vars == nil) != (b.Vars == nil) || len(a.Vars) != len(b.Vars) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}
