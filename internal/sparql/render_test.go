package sparql

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// roundTrips checks that the rendered text of a parsed query parses back to
// the same query, Window apart. It reports false, checking nothing, for a
// query holding a variable the parser minted for a sequence path: such a
// ".pN" name has no spelling, so its text cannot be read back.
func roundTrips(t *testing.T, src string, q *Query) bool {
	t.Helper()
	text := Render(q)
	if strings.Contains(text, "?.p") {
		return false
	}
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("%q renders as\n%s\nwhich does not parse: %v", src, text, err)
	}
	want := *q
	want.Window, back.Window = 0, 0
	if !reflect.DeepEqual(back, &want) {
		t.Fatalf("%q renders as\n%s\nwhich parses to\n%+v\nwant\n%+v", src, text, back, &want)
	}
	return true
}

// renderCases cover every element kind, expression kind and modifier the
// parser accepts.
var renderCases = []string{
	`EXPLAIN SELECT * FROM <http://g1> FROM <http://g2> WHERE { ?s ?p ?o }`,
	`SELECT DISTINCT ?s (COUNT(DISTINCT *) AS ?n) (SUM(?o) AS ?t) WHERE { ?s ?p ?o } GROUP BY ?s ?p HAVING (COUNT(*) > 1) HAVING (AVG(?o) < 2.5) ORDER BY DESC(?n) ?s ASC(str(?s)) LIMIT 5 OFFSET 2`,
	`SELECT * WHERE { ?s <http://p>+ ?o . ?o <http://q>* <http://x> . "lit"@en-US ?p 42 . ?s a true }`,
	`SELECT * WHERE { { ?a ?b ?c } UNION { SELECT ?a WHERE { ?a ?b ?c } } UNION { } OPTIONAL { SELECT * WHERE { ?x ?y ?z } LIMIT 1 } }`,
	`SELECT * WHERE { GRAPH <http://g> { ?s ?p ?o OPTIONAL { ?o ?q ?r } } { { SELECT * WHERE { ?s ?p ?o } } } BIND (?o + 1 AS ?o1) }`,
	`SELECT * WHERE { ?s ?p ?o FILTER ( (?o - 1) - (2 - ?o) * 3 / -?o > 1 || !(?s = ?o) && ?o NOT IN (1, "a\"b\\c\n", <http://x>) ) }`,
	`SELECT * WHERE { ?s ?p ?o FILTER ( ?o IN () || (?o IN (1)) = true || regex(str(?o), "^a", "i") ) }`,
	`SELECT * WHERE { ?s ?p ?o FILTER ( <http://www.w3.org/2001/XMLSchema#integer>(?o) >= "5"^^<http://www.w3.org/2001/XMLSchema#integer> ) }`,
	"SELECT * WHERE { ?s ?p \"\\\"\xff\" }", // a quote to escape beside a byte that is not UTF-8
	`SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) (SAMPLE(?s) AS ?any) (COUNT(?s) + 1 AS ?n1) WHERE { ?s ?p ?o }`,
}

// TestRenderRoundTrip renders queries that exercise every construct, the
// queries of FuzzParse's seed corpus (the parser tests' queries, the
// documentation's examples and LIMIT/OFFSET spellings), and the SPARQL the
// frame compiler writes for the 18 benchmark tasks under both generators,
// and parses each text back to the query it came from.
func TestRenderRoundTrip(t *testing.T) {
	srcs := map[string]string{}
	for i, src := range renderCases {
		srcs["case-"+strconv.Itoa(i)] = src
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		src, err := readFuzzString(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = src
	}
	generated, err := filepath.Glob(filepath.Join("..", "bench", "testdata", "sparql", "*.rq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(generated) != 36 {
		t.Fatalf("%d generated texts, want 18 tasks × 2 generators", len(generated))
	}
	for _, path := range generated {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = string(src)
	}
	checked := 0
	for name, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			if strings.HasPrefix(name, "case-") || strings.HasSuffix(name, ".rq") {
				t.Fatalf("%s: %v", name, err)
			}
			continue // an update or a text the parser refuses
		}
		if roundTrips(t, src, q) {
			checked++
		}
	}
	if checked < len(renderCases)+36+20 {
		t.Fatalf("only %d queries round-tripped", checked)
	}
}

// readFuzzString reads the one string argument of a native fuzzing corpus
// file.
func readFuzzString(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
	return strconv.Unquote(strings.TrimSuffix(arg, ")"))
}

// TestRenderExpressionParenthesizesNesting pins the spelling plan trees
// show: a top-level binary bare, nested ones in parentheses.
func TestRenderExpressionParenthesizesNesting(t *testing.T) {
	for src, want := range map[string]string{
		`?a = ?b`:                           `?a = ?b`,
		`?a > 1 && ?b IN (<http://x>)`:      `(?a > "1"^^<http://www.w3.org/2001/XMLSchema#integer>) && (?b IN (<http://x>))`,
		`!bound(?a)`:                        `!(bound(?a))`,
		`<http://f>(?a, "x"@en)`:            `<http://f>(?a, "x"@en)`,
		`COUNT(DISTINCT ?a) - 1 NOT IN (2)`: `(COUNT(DISTINCT ?a) - "1"^^<http://www.w3.org/2001/XMLSchema#integer>) NOT IN ("2"^^<http://www.w3.org/2001/XMLSchema#integer>)`,
	} {
		e, err := ParseExpression(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderExpression(e); got != want {
			t.Errorf("%s renders as %s, want %s", src, got, want)
		}
	}
}

func TestMapVars(t *testing.T) {
	e, err := ParseExpression(`?a + ?b > 1 && ?c IN (?a, 2) && regex(str(?b), "?a") && SUM(?a) > 0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	if same := MapVars(e, func(name string) Expression { seen = append(seen, name); return nil }); !reflect.DeepEqual(same, e) {
		t.Fatalf("a walk that replaces nothing changed the tree: %s", RenderExpression(same))
	}
	if want := []string{"a", "b", "c", "a", "b", "a"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
	renamed := MapVars(e, func(name string) Expression {
		if name == "a" {
			return ExVar{Name: "z"}
		}
		return nil
	})
	want, _ := ParseExpression(`?z + ?b > 1 && ?c IN (?z, 2) && regex(str(?b), "?a") && SUM(?z) > 0`, nil)
	if !reflect.DeepEqual(renamed, want) {
		t.Fatalf("renamed to %s", RenderExpression(renamed))
	}
	if _, err := ParseExpression(RenderExpression(e), nil); err != nil {
		t.Fatal(err)
	}
	if RenderExpression(e) == RenderExpression(renamed) {
		t.Fatal("the rename changed the original tree")
	}
}
