package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"rdfframes/internal/obs"
)

// POST /v1/update: the SPARQL 1.1 Protocol update operation. The request
// body is the update text (Content-Type application/sparql-update, or an
// "update" form field), and the response is the engine's UpdateResult as
// JSON — inserted/deleted counts, the post-batch store version, and the
// WAL sequence number. The request pipeline of route reads it POST only and
// admits it past the drain and capacity gates: a write occupies an
// evaluation slot while its DELETE WHERE patterns evaluate, and its batch
// is bounded by the body size cap, not by planner estimates.
//
// Idempotent retries: a client that sends X-Idempotency-Key gets exactly-
// once application — a retried request whose token the WAL has already
// committed answers with deduped=true instead of re-applying. The client's
// retry policy (internal/client) relies on this to retry writes safely
// after ambiguous transport failures.

// answerUpdate applies an admitted update and answers its result.
func (s *Server) answerUpdate(w http.ResponseWriter, r *http.Request, update string, _ *obs.Trace) outcome {
	res, err := s.Engine.Update(r.Context(), update, r.Header.Get("X-Idempotency-Key"))
	if err != nil {
		return outcome{cache: "write", err: err}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Store-Version", strconv.FormatUint(res.Version, 10))
	return outcome{cache: "write", version: res.Version, err: json.NewEncoder(w).Encode(res)}
}
