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
// and hands the solutions to a RowWriter one row at a time through a single
// reused buffer: the encoded response body is never materialized, and a
// slow consumer holds no lock. Row order is the same canonical order every
// other read path serves, so an export is byte-identical across plan and
// parallelism choices.

// RowWriter consumes one streamed result: the header, then each row in
// order. Implementations must not retain the row slice — it is reused.
// dataframe.FrameWriter implementations (e.g. the chunked CSV stream)
// satisfy this interface.
type RowWriter interface {
	WriteHeader(vars []string) error
	WriteRow(row []rdf.Term) error
}

// Export evaluates src and streams its solutions to w, returning the
// number of rows written. Errors before the first row (parse, plan,
// evaluation) leave w untouched, so callers can still send a clean HTTP
// error; a decode/write error mid-stream returns the rows already
// written. The caller flushes w when it is buffered.
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
	buf := make([]rdf.Term, width)
	tk := ticker{ctx: ctx} // the consumer may be slow: keep honouring cancellation
	for i := 0; i < res.n; i++ {
		if err := tk.tick(); err != nil {
			return i, err
		}
		for j, t := range res.cells[i*width : (i+1)*width] {
			buf[j] = res.terms[t]
		}
		if err := w.WriteRow(buf); err != nil {
			return i, err
		}
	}
	return res.n, nil
}
