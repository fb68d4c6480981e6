package store

import (
	"fmt"
	"hash/maphash"
	"iter"
	"slices"
	"sync"

	"rdfframes/internal/rdf"
)

// ID is a dictionary-encoded term identifier. 0 is never assigned.
type ID uint32

// MaxTerms is the maximum number of terms a Dictionary can intern: id 0 is
// the unbound sentinel, and ids from 2³¹ up belong to the query evaluator,
// which numbers the values a query computes there.
const MaxTerms = 1<<31 - 1

// Dictionary interns terms to dense ids and back, in first-seen order. It
// is three flat arrays indexed by id plus one open-addressed table:
//
//   - vals[id] is the term's value, a string header sharing its bytes with
//     whatever handed the term in (a snapshot arena, a parsed line);
//   - tags[id] indexes kinds, the distinct (kind, datatype, language)
//     triples, each held once as a Term with an empty Value;
//   - slots holds hash<<32 | id per term, 0 when empty: probed linearly,
//     kept under ¾ full, rehashed on growth from the stored hash bits. The
//     hash is seeded per dictionary, so clients cannot pick colliding terms.
//
// Identity is rdf.Term equality: terms differing in any field get distinct
// ids. The term order (see Order) is a fourth array, built when first asked
// for.
type Dictionary struct {
	vals     []string // vals[0] is a placeholder; ids start at 1
	tags     []uint32
	kinds    []rdf.Term          // kinds[k] for k ≤ BlankKind is the bare Term{Kind: k}
	kindTags map[rdf.Term]uint32 // kinds with a datatype or language -> tag
	slots    []uint64
	seed     maphash.Seed
	strBytes int    // bytes of the interned values
	limit    uint64 // id-space cap: MaxTerms, lowered only in tests

	ordMu sync.Mutex
	ord   []uint32 // see Order; covers the ids below len(ord)
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary { return newDictionary(1024) }

// newDictionary returns an empty dictionary sized for n terms.
func newDictionary(n int) *Dictionary {
	size := 16
	for 3*size < 4*(n+1) {
		size *= 2
	}
	return &Dictionary{
		vals:     make([]string, 1, n+1),
		tags:     make([]uint32, 1, n+1),
		kinds:    []rdf.Term{{}, {Kind: rdf.IRIKind}, {Kind: rdf.LiteralKind}, {Kind: rdf.BlankKind}},
		kindTags: map[rdf.Term]uint32{},
		slots:    make([]uint64, size),
		seed:     maphash.MakeSeed(),
		limit:    MaxTerms,
	}
}

// NewDictionaryFrom rebuilds a dictionary whose ids are 1, 2, ... in the
// order terms yields them, as a snapshot's term table lists them; n, the
// number of terms expected, sizes the arrays. It rejects unbound terms,
// duplicates and more than MaxTerms terms: signs of a corrupted table.
func NewDictionaryFrom(n int, terms iter.Seq[rdf.Term]) (*Dictionary, error) {
	d := newDictionary(n)
	for t := range terms {
		h := d.hash(t)
		switch {
		case !t.IsBound() || uint64(len(d.vals)) > d.limit:
			return nil, fmt.Errorf("store: term %d of the term table is unbound or beyond the id space", len(d.vals))
		case d.find(t, h) != 0:
			return nil, fmt.Errorf("store: duplicate term %s in term table", t)
		}
		d.add(t, h)
	}
	return d, nil
}

// Encode interns t, returning its id (allocating one if new). It panics if
// the dictionary is full: wrapping past MaxTerms would alias distinct terms.
func (d *Dictionary) Encode(t rdf.Term) ID {
	h := d.hash(t)
	if id := d.find(t, h); id != 0 {
		return id
	}
	if uint64(len(d.vals)) > d.limit {
		panic(fmt.Sprintf("store: dictionary overflow: cannot intern more than %d terms", d.limit))
	}
	return d.add(t, h)
}

// Lookup returns the id of t if it is already interned.
func (d *Dictionary) Lookup(t rdf.Term) (ID, bool) {
	id := d.find(t, d.hash(t))
	return id, id != 0
}

// Decode returns the term for id. It panics on an id the dictionary never
// issued, which would indicate store corruption.
func (d *Dictionary) Decode(id ID) rdf.Term {
	if id == 0 || int(id) >= len(d.vals) {
		panic(fmt.Sprintf("store: decode of unknown id %d", id))
	}
	tag := d.tags[id]
	if tag <= uint32(rdf.BlankKind) { // a bare kind: no datatype or language to copy
		return rdf.Term{Kind: rdf.TermKind(tag), Value: d.vals[id]}
	}
	k := &d.kinds[tag]
	return rdf.Term{Kind: k.Kind, Value: d.vals[id], Datatype: k.Datatype, Lang: k.Lang}
}

// Type returns the kind, datatype and language of id's term, with an empty
// Value: what a filter needs to know whether ids can be compared by
// identity, without reading the term's value.
func (d *Dictionary) Type(id ID) rdf.Term { return d.kinds[d.tags[id]] }

// Len returns the number of interned terms.
func (d *Dictionary) Len() int { return len(d.vals) - 1 }

// Bytes returns the heap bytes of the dictionary's arrays, term order
// included, and term values.
func (d *Dictionary) Bytes() int {
	d.ordMu.Lock()
	defer d.ordMu.Unlock()
	return 16*cap(d.vals) + 4*cap(d.tags) + 8*len(d.slots) + 4*cap(d.ord) + d.strBytes
}

// Order returns the term order: ord[id] is the position of id's term among
// all interned terms in rdf.Compare order, counting from 1, and ord[0] = 0
// stands for unbound. Comparing two ids' positions compares their terms.
//
// The first call builds the order; a call after the dictionary has grown
// sorts only the new ids and merges them into the old order by binary
// search. Either way a new slice replaces the old one, which is never
// written again. Concurrent calls are safe, but the dictionary must not
// grow while a caller reads the result: the store's read lock sees to it.
func (d *Dictionary) Order() []uint32 {
	d.ordMu.Lock()
	defer d.ordMu.Unlock()
	n, m := len(d.vals), max(len(d.ord), 1) // ids from m up are new
	if len(d.ord) == n {
		return d.ord
	}
	terms := make([]rdf.Term, n-m)
	keys := make([]rdf.OrderKey, n-m)
	news := make([]uint32, n-m)
	for i := range news {
		news[i] = uint32(m + i)
		terms[i] = d.Decode(ID(m + i))
		keys[i] = rdf.KeyOf(terms[i])
	}
	slices.SortFunc(news, func(a, b uint32) int {
		return rdf.CompareKeyed(terms[int(a)-m], keys[int(a)-m], terms[int(b)-m], keys[int(b)-m])
	})
	inv := make([]uint32, m) // inv[p] is the id at old position p
	for id, p := range d.ord {
		inv[p] = uint32(id)
	}
	ord := make([]uint32, n)
	p := 1 // the next old position to place
	for j, id := range news {
		t, k := terms[int(id)-m], keys[int(id)-m]
		// Distinct terms never tie: the first old term not before t is after it.
		g, _ := slices.BinarySearchFunc(inv[p:], t, func(old uint32, t rdf.Term) int {
			o := d.Decode(ID(old))
			return rdf.CompareKeyed(o, rdf.KeyOf(o), t, k)
		})
		for g += p; p < g; p++ {
			ord[inv[p]] = uint32(p + j)
		}
		ord[id] = uint32(g + j)
	}
	for ; p < m; p++ {
		ord[inv[p]] = uint32(p + len(news))
	}
	d.ord = ord
	return ord
}

// hash hashes every field of t; a term with no datatype or language costs
// one string hash. The fields are chained, not XORed, so that no family of
// terms (a value equal to its language tag, say) collides for every seed.
func (d *Dictionary) hash(t rdf.Term) uint32 {
	const k = 0x9e3779b97f4a7c15
	h := maphash.String(d.seed, t.Value) ^ uint64(t.Kind)*k
	if t.Datatype != "" || t.Lang != "" {
		h = (h*k+maphash.String(d.seed, t.Datatype))*k + maphash.String(d.seed, t.Lang)
	}
	return uint32(h)
}

// find returns the id of t, whose hash is h, or 0.
func (d *Dictionary) find(t rdf.Term, h uint32) ID {
	mask := uint32(len(d.slots) - 1)
	for i := h & mask; d.slots[i] != 0; i = (i + 1) & mask {
		if s := d.slots[i]; uint32(s>>32) == h {
			id := ID(s)
			k := &d.kinds[d.tags[id]]
			if d.vals[id] == t.Value && k.Kind == t.Kind && k.Datatype == t.Datatype && k.Lang == t.Lang {
				return id
			}
		}
	}
	return 0
}

// add interns t, which is not interned yet, under the next id.
func (d *Dictionary) add(t rdf.Term, h uint32) ID {
	id := ID(len(d.vals))
	d.vals = append(d.vals, t.Value)
	d.tags = append(d.tags, d.tag(t))
	d.strBytes += len(t.Value)
	if 4*len(d.vals) > 3*len(d.slots) {
		old := d.slots
		d.slots = make([]uint64, 2*len(old))
		for _, s := range old {
			if s != 0 {
				d.place(s)
			}
		}
	}
	d.place(uint64(h)<<32 | uint64(id))
	return id
}

// place puts slot value s into the first empty slot of its probe chain.
func (d *Dictionary) place(s uint64) {
	mask := uint32(len(d.slots) - 1)
	i := uint32(s>>32) & mask
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = s
}

// tag returns the kinds index of t's kind, datatype and language, adding
// an entry for a combination not seen before.
func (d *Dictionary) tag(t rdf.Term) uint32 {
	if t.Datatype == "" && t.Lang == "" && t.Kind <= rdf.BlankKind {
		return uint32(t.Kind)
	}
	k := rdf.Term{Kind: t.Kind, Datatype: t.Datatype, Lang: t.Lang}
	tag, ok := d.kindTags[k]
	if !ok {
		tag = uint32(len(d.kinds))
		d.kinds = append(d.kinds, k)
		d.kindTags[k] = tag
	}
	return tag
}
