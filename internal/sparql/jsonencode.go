package sparql

import (
	"bytes"
	"io"
	"sync"
	"unicode/utf8"

	"rdfframes/internal/rdf"
)

// SPARQL JSON results encoder (W3C "SPARQL 1.1 Query Results JSON Format").
// There is one encoder, over the compact form: it writes a row window in
// chunks to an io.Writer, so a large result reaches the socket (through
// gzip) while later rows are still being rendered and no whole-body buffer
// exists. A term that repeats is rendered to JSON once and copied per cell
// afterwards; results of the paper's workloads repeat each term 20–70
// times, which makes the encoder mostly memmove.

// encodeChunkBytes is the size at which the encoder hands its buffer to the
// writer: large enough that gzip and the socket see few calls, small enough
// to stay cache-resident.
const encodeChunkBytes = 32 << 10

// maxPooledEncoderBytes keeps an encoder that grew for an unusually wide
// result from pinning that memory in the pool.
const maxPooledEncoderBytes = 4 << 20

// fragRef locates one term's rendered JSON in the encoder's arena. n == 0
// means not rendered yet, with off counting the sightings so far (0 or 1):
// a term is rendered straight into the chunk the first time it appears and
// into the arena only when it appears again, so a result of all-distinct
// terms keeps no fragment at all.
type fragRef struct{ off, n uint32 }

// jsonEncoder is the pooled scratch of one writeJSON call.
type jsonEncoder struct {
	buf    []byte    // chunk under construction
	arena  []byte    // `"var":` keys, then fragments of repeating terms
	keyEnd []uint32  // arena[keyEnd[j-1]:keyEnd[j]] is the key of column j
	frags  []fragRef // per term index of the result being encoded
}

var encoderPool = sync.Pool{New: func() any {
	return &jsonEncoder{buf: make([]byte, 0, encodeChunkBytes+4<<10)}
}}

// writeJSON streams rows [lo, hi) as one SPARQL JSON document to w.
func (c *compactResult) writeJSON(w io.Writer, lo, hi int) error {
	e := encoderPool.Get().(*jsonEncoder)
	if cap(e.frags) < len(c.terms) {
		e.frags = make([]fragRef, len(c.terms))
	} else {
		e.frags = e.frags[:len(c.terms)]
		clear(e.frags)
	}
	frags, arena, buf, keyEnd := e.frags, e.arena[:0], e.buf[:0], e.keyEnd[:0]
	defer func() {
		e.buf, e.arena, e.keyEnd = buf, arena, keyEnd
		if cap(buf)+cap(arena)+8*cap(frags) <= maxPooledEncoderBytes {
			encoderPool.Put(e)
		}
	}()

	buf = append(buf, `{"head":{"vars":[`...)
	for j, v := range c.vars {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, v)
		arena = append(appendJSONString(arena, v), ':')
		keyEnd = append(keyEnd, uint32(len(arena)))
	}
	buf = append(buf, `]},"results":{"bindings":[`...)

	nv := len(c.vars)
	for i := lo; i < hi; i++ {
		if i > lo {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		first := true
		keyStart := uint32(0)
		for j, t := range c.cells[i*nv : (i+1)*nv] {
			key := arena[keyStart:keyEnd[j]]
			keyStart = keyEnd[j]
			if t == 0 {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, key...)
			switch f := &frags[t]; {
			case f.n > 0:
				buf = append(buf, arena[f.off:f.off+f.n]...)
			case f.off == 0:
				f.off = 1
				buf = appendJSONTerm(buf, c.terms[t])
			default:
				off := len(arena)
				arena = appendJSONTerm(arena, c.terms[t])
				*f = fragRef{off: uint32(off), n: uint32(len(arena) - off)}
				buf = append(buf, arena[off:]...)
			}
		}
		buf = append(buf, '}')
		if len(buf) >= encodeChunkBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, `]}}`...)
	_, err := w.Write(buf)
	return err
}

// marshalJSON returns rows [lo, hi) as one SPARQL JSON document, for the
// callers that need the bytes themselves (Response.Body, Results.MarshalJSON).
// It encodes twice, first only to count: the body is then allocated once at
// its exact size, and a body its caller keeps pins no slack. Encoding once into a
// growing buffer and copying the result out was measured slower as well as
// larger — 500 rows: 0.27 ms and 197 KB against 0.43–0.53 ms and 820 KB;
// 50,000 rows: 15 ms and 19 MB against 21–30 ms and 61 MB.
func (c *compactResult) marshalJSON(lo, hi int) []byte {
	var size byteCounter
	_ = c.writeJSON(&size, lo, hi) // neither writer can fail
	body := bytes.NewBuffer(make([]byte, 0, size))
	_ = c.writeJSON(body, lo, hi)
	return body.Bytes()
}

// byteCounter counts the bytes written to it.
type byteCounter int

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// MarshalJSON encodes the results in the SPARQL JSON results format.
func (r *Results) MarshalJSON() ([]byte, error) {
	return compactOf(r).marshalJSON(0, len(r.Rows)), nil
}

// WriteJSON streams the results as SPARQL JSON to w.
func (r *Results) WriteJSON(w io.Writer) error {
	return compactOf(r).writeJSON(w, 0, len(r.Rows))
}

func appendJSONTerm(buf []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRIKind:
		buf = append(buf, `{"type":"uri","value":`...)
		buf = appendJSONString(buf, t.Value)
	case rdf.BlankKind:
		buf = append(buf, `{"type":"bnode","value":`...)
		buf = appendJSONString(buf, t.Value)
	default:
		buf = append(buf, `{"type":"literal","value":`...)
		buf = appendJSONString(buf, t.Value)
		if t.Lang != "" {
			buf = append(buf, `,"xml:lang":`...)
			buf = appendJSONString(buf, t.Lang)
		}
		if t.Datatype != "" {
			buf = append(buf, `,"datatype":`...)
			buf = appendJSONString(buf, t.Datatype)
		}
	}
	return append(buf, '}')
}

const hexDigits = "0123456789abcdef"

func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			buf = append(buf, s[start:i]...)
			switch c {
			case '"':
				buf = append(buf, '\\', '"')
			case '\\':
				buf = append(buf, '\\', '\\')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `�`...)
			i++
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
