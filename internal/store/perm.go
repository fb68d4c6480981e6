package store

import (
	"math/bits"
	"slices"
	"sort"
)

// This file is the store's one physical layout. A graph keeps its triples
// three times, once per permutation (SPO, POS, OSP), and every read — a
// pattern match, a count, a sorted run, a catalog statistic, a partitioned
// scan — is a range operation on one of them.
//
// A permutation is a three-level trie over the rotated key (a, b, c) held
// in four flat arrays. Ids are dense, so the first level is an offset table
// indexed by a; the second level lists the distinct b of each a with one
// offset per entry; the third is c itself, one element per triple:
//
//	b entries of a:   b[aoff[a] : aoff[a+1]]       ascending
//	c entries of b[j]: c[coff[j] : coff[j+1]]      ascending
//
// Those arrays are the base: immutable between merges. An insert of a
// triple the base does not hold goes to delta, a short sorted slice of
// rotated keys. A delete moves no memory: it sets the triple's bit in dead
// (one bit per position of c) or, for a pending insert, the entry's own dead
// mark, and re-inserting the triple clears it again — so delta and base
// never share a key. Graph.build merges everything back into fresh base
// arrays.

// key is a triple rotated into one permutation's component order.
type key [3]ID

// order names a permutation by the rotation it stores.
type order uint8

const (
	spo order = iota
	pos
	osp
)

func (o order) key(t IDTriple) key {
	switch o {
	case pos:
		return key{t.P, t.O, t.S}
	case osp:
		return key{t.O, t.S, t.P}
	}
	return key{t.S, t.P, t.O}
}

func (o order) triple(k key) IDTriple {
	switch o {
	case pos:
		return IDTriple{S: k[2], P: k[0], O: k[1]}
	case osp:
		return IDTriple{S: k[1], P: k[2], O: k[0]}
	}
	return IDTriple{S: k[0], P: k[1], O: k[2]}
}

// cmpPrefix orders x against the first n components of k.
func cmpPrefix(x, k key, n int) int {
	for i := 0; i < n; i++ {
		if x[i] != k[i] {
			if x[i] < k[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func cmpKey(x, y key) int { return cmpPrefix(x, y, 3) }

// bitmap is a fixed-size bit set that knows how many of its bits are set.
type bitmap struct {
	words []uint64
	ones  int
}

func newBitmap(n int) bitmap { return bitmap{words: make([]uint64, (n+63)/64)} }

func (m *bitmap) get(i uint32) bool { return m.words[i>>6]>>(i&63)&1 != 0 }

// set turns bit i on or off.
func (m *bitmap) set(i uint32, on bool) {
	if m.get(i) == on {
		return
	}
	m.words[i>>6] ^= 1 << (i & 63)
	if on {
		m.ones++
	} else {
		m.ones--
	}
}

// count returns the number of set bits among [lo, hi).
func (m *bitmap) count(lo, hi uint32) int {
	if m.ones == 0 || lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63)
	tail := ^uint64(0) >> (63 - (hi-1)&63)
	if first == last {
		return bits.OnesCount64(m.words[first] & head & tail)
	}
	n := bits.OnesCount64(m.words[first]&head) + bits.OnesCount64(m.words[last]&tail)
	for _, w := range m.words[first+1 : last] {
		n += bits.OnesCount64(w)
	}
	return n
}

// pending is a delta entry: an inserted key, dead once it was deleted again
// before a merge.
type pending struct {
	key
	dead bool
}

func cmpPending(p pending, k key) int { return cmpKey(p.key, k) }

type perm struct {
	ord   order
	aoff  []uint32 // len = largest a + 2
	b     []ID
	coff  []uint32 // len(b) + 1
	c     []ID
	dead  bitmap    // tombstone per position of c
	delta []pending // sorted, disjoint from the base keys
	ddead int       // dead entries of delta
}

// buildPerm lays out ts, which must already be sorted in ord's rotation and
// duplicate-free, and also returns how many distinct first components it
// holds. Every array is allocated at its exact size.
func buildPerm(ord order, ts []IDTriple) (x perm, tops int) {
	pairs, maxA := 0, ID(0)
	var prev key
	for i, t := range ts {
		k := ord.key(t)
		if i == 0 || k[0] != prev[0] || k[1] != prev[1] {
			pairs++
		}
		if i == 0 || k[0] != prev[0] {
			tops++
		}
		prev, maxA = k, k[0]
	}
	x = perm{
		ord:  ord,
		aoff: make([]uint32, int(maxA)+2),
		b:    make([]ID, 0, pairs),
		coff: make([]uint32, 0, pairs+1),
		c:    make([]ID, len(ts)),
		dead: newBitmap(len(ts)),
	}
	for i, t := range ts {
		k := ord.key(t)
		if i == 0 || k[0] != prev[0] || k[1] != prev[1] {
			x.aoff[k[0]+1]++
			x.b = append(x.b, k[1])
			x.coff = append(x.coff, uint32(i))
		}
		x.c[i] = k[2]
		prev = k
	}
	x.coff = append(x.coff, uint32(len(ts)))
	for a := 1; a < len(x.aoff); a++ {
		x.aoff[a] += x.aoff[a-1]
	}
	return x, tops
}

// bytes is the heap the permutation's arrays hold.
func (x *perm) bytes() int {
	return 4*(cap(x.aoff)+cap(x.b)+cap(x.coff)+cap(x.c)) + 8*cap(x.dead.words) + 16*cap(x.delta)
}

// span is a contiguous piece of a permutation's stream: the base positions
// [lo, hi) of c, where lo lies in b entry j of a (or before it: scan walks
// forward), plus the delta entries that interleave with them.
type span struct {
	a      ID
	j      uint32
	lo, hi uint32
	delta  []pending
}

// span resolves the keys whose first n components equal k's.
func (x *perm) span(k key, n int) span {
	sp := span{hi: uint32(len(x.c)), delta: x.deltaRange(k, n)}
	if n == 0 {
		return sp
	}
	sp.a = k[0]
	var bhi uint32
	if int(k[0])+1 < len(x.aoff) {
		sp.j, bhi = x.aoff[k[0]], x.aoff[k[0]+1]
	}
	if n >= 2 {
		j, ok := slices.BinarySearch(x.b[sp.j:bhi], k[1])
		sp.j += uint32(j)
		bhi = sp.j
		if ok {
			bhi++
		}
	}
	sp.lo, sp.hi = x.coff[sp.j], x.coff[bhi]
	if n == 3 {
		i, ok := slices.BinarySearch(x.c[sp.lo:sp.hi], k[2])
		sp.lo += uint32(i)
		sp.hi = sp.lo
		if ok {
			sp.hi++
		}
	}
	return sp
}

// deltaRange returns the delta entries whose first n components equal k's.
func (x *perm) deltaRange(k key, n int) []pending {
	d := x.delta
	if len(d) == 0 || n == 0 {
		return d
	}
	lo := sort.Search(len(d), func(i int) bool { return cmpPrefix(d[i].key, k, n) >= 0 })
	hi := sort.Search(len(d), func(i int) bool { return cmpPrefix(d[i].key, k, n) > 0 })
	return d[lo:hi]
}

// settled reports that sp is served by the base arrays alone: no delta
// entry and no tombstone falls inside it.
func (x *perm) settled(sp span) bool {
	return len(sp.delta) == 0 && x.dead.count(sp.lo, sp.hi) == 0
}

// count is the number of live triples in sp.
func (x *perm) count(sp span) int {
	n := int(sp.hi-sp.lo) - x.dead.count(sp.lo, sp.hi) + len(sp.delta)
	if x.ddead > 0 {
		for _, p := range sp.delta {
			if p.dead {
				n--
			}
		}
	}
	return n
}

// scan streams sp's live triples in permutation order: the base range
// merged with the delta entries, dead ones of either skipped. It reports
// false when yield stopped it.
func (x *perm) scan(sp span, yield func(IDTriple) bool) bool {
	a, j, d := sp.a, sp.j, sp.delta
	for i := sp.lo; i < sp.hi; {
		for i >= x.coff[j+1] {
			j++
		}
		for j >= x.aoff[a+1] {
			a++
		}
		k := key{a, x.b[j]}
		for end := min(x.coff[j+1], sp.hi); i < end; i++ {
			if x.dead.get(i) {
				continue
			}
			k[2] = x.c[i]
			for len(d) > 0 && cmpKey(d[0].key, k) < 0 {
				if !d[0].dead && !yield(x.ord.triple(d[0].key)) {
					return false
				}
				d = d[1:]
			}
			if !yield(x.ord.triple(k)) {
				return false
			}
		}
	}
	for _, p := range d {
		if !p.dead && !yield(x.ord.triple(p.key)) {
			return false
		}
	}
	return true
}

// split cuts sp into consecutive pieces of about morsel base positions
// (one piece when morsel <= 0); scanning them in order is scanning sp. Each
// delta key goes to the piece whose key interval contains it.
func (x *perm) split(sp span, morsel int) []span {
	chunks := ChunkBounds(int(sp.hi-sp.lo), morsel)
	if len(chunks) <= 1 {
		if sp.lo == sp.hi && len(sp.delta) == 0 {
			return nil
		}
		return []span{sp}
	}
	out := make([]span, len(chunks))
	rest := sp.delta
	for n, ch := range chunks {
		lo := sp.lo + uint32(ch[0])
		// The b entry and a holding position lo: the last offsets <= it.
		j, _ := slices.BinarySearch(x.coff, lo+1)
		a, _ := slices.BinarySearch(x.aoff, uint32(j))
		piece := span{a: ID(a - 1), j: uint32(j - 1), lo: lo, hi: sp.lo + uint32(ch[1])}
		if n > 0 {
			first := key{piece.a, x.b[piece.j], x.c[lo]}
			cut, _ := slices.BinarySearchFunc(rest, first, cmpPending)
			out[n-1].delta, rest = rest[:cut], rest[cut:]
		}
		out[n] = piece
	}
	out[len(out)-1].delta = rest
	return out
}

// insert makes k a live delta entry, reporting false when it already is.
func (x *perm) insert(k key) bool {
	i, found := slices.BinarySearchFunc(x.delta, k, cmpPending)
	switch {
	case !found:
		x.delta = slices.Insert(x.delta, i, pending{key: k})
	case x.delta[i].dead:
		x.delta[i].dead = false
		x.ddead--
	default:
		return false
	}
	return true
}

// remove marks delta entry k dead, reporting false when no live k is there.
func (x *perm) remove(k key) bool {
	i, found := slices.BinarySearchFunc(x.delta, k, cmpPending)
	if !found || x.delta[i].dead {
		return false
	}
	x.delta[i].dead = true
	x.ddead++
	return true
}

// union returns the ascending duplicate-free union of the base ids keep
// accepts (all of them when keep is nil) and extra. base is ascending and
// duplicate-free; extra is ascending and may repeat ids.
func union(base []ID, keep func(i int) bool, extra []ID) Run {
	out := make([]ID, 0, len(base)+len(extra))
	push := func(v ID) {
		if n := len(out); n == 0 || out[n-1] != v {
			out = append(out, v)
		}
	}
	for i, v := range base {
		for len(extra) > 0 && extra[0] < v {
			push(extra[0])
			extra = extra[1:]
		}
		if keep == nil || keep(i) {
			push(v)
		}
	}
	for _, v := range extra {
		push(v)
	}
	return out
}

// column projects one component out of the live delta entries.
func column(d []pending, col int) []ID {
	out := make([]ID, 0, len(d))
	for _, p := range d {
		if !p.dead {
			out = append(out, p.key[col])
		}
	}
	return out
}

// leaf is the run of c under (a, b): a sub-slice of the base when settled,
// otherwise a merged copy the size of the range.
func (x *perm) leaf(a, b ID) Run {
	sp := x.span(key{a, b}, 2)
	if x.settled(sp) {
		return x.c[sp.lo:sp.hi:sp.hi]
	}
	return union(x.c[sp.lo:sp.hi], func(i int) bool { return !x.dead.get(sp.lo + uint32(i)) }, column(sp.delta, 2))
}

// mid is the run of distinct b under a, with leaf's cost contract.
func (x *perm) mid(a ID) Run {
	sp := x.span(key{a}, 1)
	bhi := sp.j
	if sp.lo < sp.hi {
		bhi = x.aoff[a+1]
	}
	if x.settled(sp) {
		return x.b[sp.j:bhi:bhi]
	}
	return union(x.b[sp.j:bhi], func(i int) bool {
		lo, hi := x.coff[sp.j+uint32(i)], x.coff[sp.j+uint32(i)+1]
		return int(hi-lo) > x.dead.count(lo, hi)
	}, column(sp.delta, 1))
}

// top is the run of a that carry at least one live triple; always a copy,
// proportional to the id range the permutation spans.
func (x *perm) top() Run {
	base := make([]ID, 0, 64)
	for a := 1; a+1 < len(x.aoff); a++ {
		if lo, hi := x.coff[x.aoff[a]], x.coff[x.aoff[a+1]]; int(hi-lo) > x.dead.count(lo, hi) {
			base = append(base, ID(a))
		}
	}
	if len(x.delta) == 0 {
		return base
	}
	return union(base, nil, column(x.delta, 0))
}
