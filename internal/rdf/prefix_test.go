package rdf

import "testing"

func newTestPrefixes() *PrefixMap {
	return NewPrefixMap(map[string]string{
		"dbpp": "http://dbpedia.org/property/",
		"dbpr": "http://dbpedia.org/resource/",
		"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
	})
}

func TestExpand(t *testing.T) {
	pm := newTestPrefixes()
	cases := []struct {
		in, want string
	}{
		{"dbpp:starring", "http://dbpedia.org/property/starring"},
		{"<http://x/y>", "http://x/y"},
		{"http://x/y", "http://x/y"},
	}
	for _, c := range cases {
		got, err := pm.Expand(c.in)
		if err != nil || got != c.want {
			t.Errorf("Expand(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := pm.Expand("nope:thing"); err == nil {
		t.Error("unknown prefix accepted")
	}
	if _, err := pm.Expand("noprefix"); err == nil {
		t.Error("bare name accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	pm := newTestPrefixes()
	c := pm.Clone()
	c.Bind("zzz", "http://zzz/")
	if _, ok := pm.Lookup("zzz"); ok {
		t.Fatal("Clone is not independent")
	}
}

func TestMerge(t *testing.T) {
	pm := newTestPrefixes()
	other := NewPrefixMap(map[string]string{"dbpo": "http://dbpedia.org/ontology/"})
	pm.Merge(other)
	if got := pm.MustExpand("dbpo:genre"); got != "http://dbpedia.org/ontology/genre" {
		t.Fatalf("merge failed: %q", got)
	}
	pm.Merge(nil) // must not panic
}

func TestCommonPrefixes(t *testing.T) {
	pm := CommonPrefixes()
	if got := pm.MustExpand("rdf:type"); got != RDFType {
		t.Fatalf("rdf:type = %q", got)
	}
}
