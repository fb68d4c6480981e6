package rdf

import (
	"fmt"
	"strings"
)

// PrefixMap maps namespace prefixes (without the trailing colon) to
// namespace IRIs. It expands prefixed names such as "dbpp:starring" to full
// IRIs.
type PrefixMap struct {
	byPrefix map[string]string
}

// NewPrefixMap returns a PrefixMap seeded with the given prefix→IRI bindings.
func NewPrefixMap(bindings map[string]string) *PrefixMap {
	pm := &PrefixMap{byPrefix: make(map[string]string, len(bindings)+4)}
	for p, ns := range bindings {
		pm.Bind(p, ns)
	}
	return pm
}

// CommonPrefixes returns a PrefixMap with the ubiquitous RDF prefixes bound.
func CommonPrefixes() *PrefixMap {
	return NewPrefixMap(map[string]string{
		"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
		"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
		"xsd":  "http://www.w3.org/2001/XMLSchema#",
		"owl":  "http://www.w3.org/2002/07/owl#",
	})
}

// Bind associates prefix with the namespace IRI ns, replacing any previous
// binding for prefix.
func (pm *PrefixMap) Bind(prefix, ns string) {
	if pm.byPrefix == nil {
		pm.byPrefix = make(map[string]string)
	}
	pm.byPrefix[strings.TrimSuffix(prefix, ":")] = ns
}

// Lookup returns the namespace bound to prefix.
func (pm *PrefixMap) Lookup(prefix string) (string, bool) {
	ns, ok := pm.byPrefix[prefix]
	return ns, ok
}

// Expand resolves a prefixed name ("dbpp:starring") to a full IRI. Inputs
// that are already full IRIs (contain "://" or start with '<') are returned
// unchanged, with angle brackets stripped.
func (pm *PrefixMap) Expand(name string) (string, error) {
	if strings.HasPrefix(name, "<") && strings.HasSuffix(name, ">") {
		return name[1 : len(name)-1], nil
	}
	if strings.Contains(name, "://") {
		return name, nil
	}
	i := strings.Index(name, ":")
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is neither a full IRI nor a prefixed name", name)
	}
	ns, ok := pm.byPrefix[name[:i]]
	if !ok {
		return "", fmt.Errorf("rdf: unknown prefix %q in %q", name[:i], name)
	}
	return ns + name[i+1:], nil
}

// MustExpand is Expand for inputs known to be valid; it panics on error.
func (pm *PrefixMap) MustExpand(name string) string {
	iri, err := pm.Expand(name)
	if err != nil {
		panic(err)
	}
	return iri
}

// Clone returns an independent copy of the prefix map.
func (pm *PrefixMap) Clone() *PrefixMap {
	c := &PrefixMap{byPrefix: make(map[string]string, len(pm.byPrefix))}
	for p, ns := range pm.byPrefix {
		c.byPrefix[p] = ns
	}
	return c
}

// Merge copies all bindings from other into pm (other wins on conflicts).
func (pm *PrefixMap) Merge(other *PrefixMap) {
	if other == nil {
		return
	}
	for p, ns := range other.byPrefix {
		pm.Bind(p, ns)
	}
}
