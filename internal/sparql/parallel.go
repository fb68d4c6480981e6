package sparql

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rdfframes/internal/store"
)

// Morsel-driven intra-query parallelism. The evaluator's id-space operators
// — fused BGP pipelines, hash/nested-loop joins, the trie walk, DISTINCT —
// partition their input into morsels, fan the morsels out to a bounded
// worker pool, and merge the per-morsel partial outputs back in morsel
// order.
//
// Determinism guarantee: parallel evaluation is byte-identical to serial
// evaluation at every Parallelism setting. Each operator's morsels are
// contiguous ranges of the exact stream the serial operator consumes (row
// ranges of the current batch, or store.MatchParts segments whose
// concatenation is the MatchAny stream), each worker emits rows in the same
// order the serial loop would for its range, and partials concatenate
// strictly in morsel order. Operators whose output depends on cross-row
// state resolve it the way the serial code does: DISTINCT merges per-morsel
// survivors serially in morsel order so the global first occurrence wins,
// and joins share one index built up front.
//
// Workers touch only read-only shared state (the store under the engine's
// read lock, the current batch, the join index, the evaluator dictionary)
// plus worker-local scratch, which is what keeps the pool race-free. The
// one kind of expression evaluated on workers is a pushed-down FILTER,
// which only decodes (see pipeline.go); everything that interns computed
// terms — BIND, projections, aggregates, ORDER BY keys, paths — stays on
// the query goroutine, because the evaluator dictionary's intern table is
// deliberately unsynchronized.
const (
	// morselRows is the number of solution rows per morsel for
	// row-partitioned operators (probes, joins, DISTINCT, decode).
	morselRows = 1024
	// morselScan is the number of index entries per morsel for partitioned
	// base scans.
	morselScan = 4096
	// minParallelRows gates parallel joins and DISTINCT: below two morsels
	// scheduling overhead outweighs any speedup and the operator stays on
	// the query goroutine (pipelines apply the same rule to their estimated
	// work, see scaleMorsel).
	minParallelRows = 2 * morselRows
)

// ticker tracks one goroutine's evaluation progress, checking the query
// deadline and context cancellation every few thousand steps. The query
// goroutine owns one (evaluator.tk); every pool worker gets its own, so
// progress counting never races. Cancellation stops a worker within one
// tick window, and the scheduler additionally checks between morsels, so
// an abandoned query's workers quit within one morsel.
type ticker struct {
	steps    int
	deadline time.Time
	ctx      context.Context
	// slot is the pool goroutine's index (0 on the query goroutine), for
	// operators that keep per-goroutine state across morsels.
	slot int
}

// tick counts one step and polls check every 8192 steps.
func (t *ticker) tick() error {
	t.steps++
	if t.steps&0x1fff != 0 {
		return nil
	}
	return t.check()
}

// check reports a context or deadline expiry. A context deadline maps to
// ErrTimeout (the engine's timeout error); cancellation surfaces as the
// context's own error.
func (t *ticker) check() error {
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return ErrTimeout
			}
			return err
		}
	}
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		return ErrTimeout
	}
	return nil
}

// forEachPart runs fn for every part index in [0, n), fanning out to the
// evaluator's worker pool when it is enabled (and to at most n workers).
// Parts are claimed from a shared counter so stragglers do not serialize
// the tail. Each worker receives its own ticker; the first error (lowest
// part index) is returned and stops the pool at morsel granularity.
func (ev *evaluator) forEachPart(n int, fn func(part int, tk *ticker) error) error {
	workers := ev.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i, &ev.tk); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := ticker{deadline: ev.tk.deadline, ctx: ev.tk.ctx, slot: w}
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := tk.check(); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				if err := fn(i, &tk); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rowChunks splits [0, n) row indexes into morsel-sized [lo, hi) ranges
// (store.ChunkBounds, shared with the scan partitioner).
func rowChunks(n, morsel int) [][2]int { return store.ChunkBounds(n, morsel) }

// join computes the SPARQL (left outer when leftOuter) join of two batches,
// on the worker pool when the left side is large enough: the indexes are
// built once up front, left-row morsels probe them concurrently, each pool
// goroutine writes through its own partWriter, and the parts merge in
// morsel order — the exact row order of the serial loop.
func (ev *evaluator) join(l, r *idRows, leftOuter bool) (*idRows, error) {
	if leftOuter && r.n == 0 {
		return l, nil
	}
	if l.n == 1 && l.width() == 0 {
		ev.stats.joinRows += int64(r.n) // the unit solution joins to r as it is
		return r, nil
	}
	jx := makeJoinExec(l, r, leftOuter)
	if l.n == 0 || r.n == 0 {
		return newIDRows(jx.js.outVars), nil
	}
	bounds := [][2]int{{0, l.n}}
	if ev.workers > 1 && l.n >= minParallelRows {
		bounds = rowChunks(l.n, morselRows)
	}
	writers := make([]partWriter, max(ev.workers, 1))
	parts := make([]pipePart, len(bounds))
	var candidates atomic.Int64
	err := ev.forEachPart(len(bounds), func(p int, tk *ticker) error {
		w := &writers[tk.slot]
		w.width = len(jx.js.outVars)
		n, err := jx.joinRange(bounds[p][0], bounds[p][1], tk, w)
		candidates.Add(n)
		parts[p] = w.take()
		return err
	})
	ev.stats.joinCandidates += candidates.Load()
	if err != nil {
		return nil, err
	}
	out := mergePipeParts(jx.js.outVars, parts)
	ev.stats.joinRows += int64(out.n)
	return out, nil
}

// distinctRows removes rows that repeat an earlier row in the key columns,
// keeping first occurrences in order, like idRows.distinct, but hashes
// morsels on the worker pool: each worker dedups its range and records the
// survivors' keys, then a serial merge in morsel order applies global
// first-occurrence-wins — the same rows survive as in the serial pass.
func (ev *evaluator) distinctRows(r *idRows, key []int) error {
	if ev.workers <= 1 || r.n < minParallelRows {
		r.distinct(key)
		return nil
	}
	bounds := rowChunks(r.n, morselRows)
	type survivors struct {
		rows []int32  // in-range first occurrences, ascending
		keys []string // their encoded keys
	}
	parts := make([]survivors, len(bounds))
	err := ev.forEachPart(len(bounds), func(p int, tk *ticker) error {
		lo, hi := bounds[p][0], bounds[p][1]
		seen := make(map[string]bool, hi-lo)
		var kb []byte
		var pk survivors
		rows := r.cursor(lo)
		for i := lo; i < hi; i++ {
			if err := tk.tick(); err != nil {
				return err
			}
			kb = appendIDKey(kb[:0], rows.next(), key)
			if seen[string(kb)] {
				continue
			}
			k := string(kb)
			seen[k] = true
			pk.rows = append(pk.rows, int32(i))
			pk.keys = append(pk.keys, k)
		}
		parts[p] = pk
		return nil
	})
	if err != nil {
		return err
	}
	seen := make(map[string]bool, r.n)
	i, p, j := int32(-1), 0, 0 // row i; parts[p].rows[j] is the next survivor
	return r.retain(func([]store.ID) (bool, error) {
		i++
		for p < len(parts) && j == len(parts[p].rows) {
			p, j = p+1, 0
		}
		if p == len(parts) || parts[p].rows[j] != i {
			return false, nil
		}
		k := parts[p].keys[j]
		j++
		if seen[k] {
			return false, nil
		}
		seen[k] = true
		return true, nil
	})
}
