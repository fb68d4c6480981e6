package sparql

import (
	"context"
	"fmt"

	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
)

// Streaming result export. Export evaluates a query into the compact
// result every read path shares — cells in id space over a table of the
// distinct terms, resolved under the store read lock — releases the lock,
// and hands the solutions to a RowWriter as they are: the result's one term
// table and its cells, a morsel of whole rows at a time. The encoded
// response body is never materialized, no row is copied, and a slow
// consumer holds no lock. Row order is the same canonical order every other
// read path serves, so an export is byte-identical across plan and
// parallelism choices.

// RowWriter consumes one streamed result, table-shaped: the header, then
// runs of whole rows, each cell an index into terms — the result's one term
// table, whose entry 0 is the unbound term, passed with every run. A run of
// rows rows holds rows × len(vars) cells, row after row; WriteRows returns
// how many of them it wrote before an error. Implementations must not
// retain the cells or change the table. dataframe.CSVStream implements it.
type RowWriter interface {
	WriteHeader(vars []string) error
	WriteRows(terms []rdf.Term, cells []uint32, rows int) (int, error)
}

// Export evaluates src and streams its solutions to w, returning the
// number of rows written. Errors before the first row (parse, plan,
// evaluation) leave w untouched, so callers can still send a clean HTTP
// error; a write error or a cancellation mid-stream returns the rows
// already handed over. The caller flushes w when it is buffered.
func (e *Engine) Export(ctx context.Context, src string, w RowWriter) (int, error) {
	q, qp, err := e.planned(ctx, src)
	if err != nil {
		return 0, err
	}
	if q.Explain {
		return 0, fmt.Errorf("sparql: export: EXPLAIN queries have no row stream")
	}
	res, _, err := e.evaluate(ctx, obs.TraceFrom(ctx), src, q, qp)
	if err != nil {
		return 0, err
	}
	if err := w.WriteHeader(res.vars); err != nil {
		return 0, err
	}
	width := len(res.vars)
	tk := ticker{ctx: ctx} // the consumer may be slow: keep honouring cancellation
	for lo := 0; lo < res.n; lo += morselRows {
		if err := tk.check(); err != nil {
			return lo, err
		}
		hi := min(lo+morselRows, res.n)
		if n, err := w.WriteRows(res.terms, res.cells[lo*width:hi*width], hi-lo); err != nil {
			return lo + n, err
		}
	}
	return res.n, nil
}
