package sparql

import (
	"bytes"
	"reflect"
	"testing"

	"rdfframes/internal/rdf"
)

func TestResultsJSONRoundTrip(t *testing.T) {
	in := &Results{
		Vars: []string{"s", "o"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://ex/a"), rdf.NewLiteral("plain")},
			{rdf.NewIRI("http://ex/b"), rdf.NewLangLiteral("hallo", "de")},
			{rdf.NewBlank("b0"), rdf.NewInteger(42)},
			{rdf.NewIRI("http://ex/c"), {}}, // unbound cell
		},
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestResultsJSONEmpty(t *testing.T) {
	in := &Results{Vars: []string{"x"}}
	data, err := in.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out Results
	if err := out.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 0 || len(out.Vars) != 1 {
		t.Fatalf("out = %+v", out)
	}
}

func TestResultsUnmarshalRejectsBadTermType(t *testing.T) {
	bad := `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"weird","value":"v"}}]}}`
	var r Results
	if err := r.UnmarshalJSON([]byte(bad)); err == nil {
		t.Fatal("unknown term type accepted")
	}
}

func TestVirtuosoStyleTypedLiteral(t *testing.T) {
	// Some endpoints emit "typed-literal"; we accept it on decode.
	in := `{"head":{"vars":["n"]},"results":{"bindings":[{"n":{"type":"typed-literal","value":"5","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`
	var r Results
	if err := r.UnmarshalJSON([]byte(in)); err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0] != rdf.NewInteger(5) {
		t.Fatalf("got %v", r.Rows[0][0])
	}
}
