package store

// Range-partitioned scans: the morsel source for the SPARQL evaluator's
// parallel operators. MatchParts splits the match stream of one triple
// pattern into contiguous segments whose concatenation is exactly the
// MatchAny stream, so a worker pool can scan segments independently and a
// combiner that keeps segment order reproduces the serial scan byte for
// byte. A segment is a sub-range of the positions of the permutation that
// serves the pattern (perm.split), whatever the pattern's shape.

// ScanPart streams one contiguous segment of a pattern's match stream. The
// yield callback returns false to stop that segment early. ScanParts are
// read-only over the store and safe to run concurrently, provided the store
// is not mutated meanwhile (the evaluator holds the store read lock).
type ScanPart func(yield func(IDTriple) bool)

// MatchParts partitions the match stream of pat over the given graphs (all
// graphs when empty, like MatchAny) into contiguous segments of roughly
// morsel triples each. Concatenating the segments' streams in order yields
// exactly the MatchAny stream for the same arguments. morsel <= 0 yields a
// single segment per graph.
func (s *Store) MatchParts(graphURIs []string, pat IDTriple, morsel int) []ScanPart {
	var parts []ScanPart
	for _, g := range s.graphList(graphURIs) {
		x, sp := g.access(pat)
		for _, piece := range x.split(sp, morsel) {
			parts = append(parts, func(yield func(IDTriple) bool) { x.scan(piece, yield) })
		}
	}
	return parts
}

// ChunkBounds splits [0, n) into [lo, hi) ranges of at most morsel items
// (one range for the whole span when morsel <= 0). n == 0 yields no
// ranges. It is the single definition of morsel boundaries: the scan
// partitioner here and the evaluator's row partitioner both use it.
func ChunkBounds(n, morsel int) [][2]int {
	if n == 0 {
		return nil
	}
	if morsel <= 0 || morsel >= n {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+morsel-1)/morsel)
	for lo := 0; lo < n; lo += morsel {
		hi := lo + morsel
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
