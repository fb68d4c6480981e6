// Package snapshot persists a store.Store to a versioned, checksummed
// binary file and reopens it without re-parsing any RDF text — the storage
// half of the system's lifecycle. A snapshot is the dictionary as a
// length-prefixed term table plus, per named graph, the store's sorted id
// triples verbatim: the live triples in SPO order as little-endian uint32s.
// Reopening cuts every term string from one copy of the term table and
// feeds the terms in id order to store.NewDictionaryFrom, which fills its
// arrays and id table without a per-term allocation; each triple array goes
// to store.BulkGraph, which lays out SPO in one pass and derives the other
// two permutations by one counting sort each. No text is scanned, and the
// permutations are consistent with each other by construction.
//
// # File format (version 3)
//
//	[8]byte  magic "RDFFSNAP"
//	uint32   format version (little endian)
//	uvarint  term count N, then N terms:
//	           byte kind (1 IRI, 2 literal, 3 blank)
//	           uvarint len + bytes value
//	           literals only: uvarint len + bytes datatype,
//	                          uvarint len + bytes language tag
//	uvarint  graph count G, then G graphs:
//	           uvarint len + bytes graph URI
//	           uvarint triple count T, then T triples, strictly ascending
//	           in (subject, predicate, object) order:
//	             uint32 subject id, uint32 predicate id, uint32 object id
//	             (little endian)
//	uint32   CRC-32 (IEEE, little endian) of every preceding byte
//
// All ids refer to the term table (1-based; 0 never appears). The trailing
// checksum covers the header too, so a corrupted, truncated, or trailing-
// garbage file is always rejected with a descriptive error rather than
// loaded wrong. A graph's triples have exactly one valid order, so snapshot
// bytes are a deterministic function of store content: a store carrying
// tombstones or pending inserts writes the same bytes as its compacted
// twin.
//
// Versions 1 and 2 (insertion-ordered varint triples plus serialized
// adjacency-map images) are rejected with an *UnsupportedVersionError;
// re-create such a snapshot from its source data.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Magic identifies a snapshot file.
const Magic = "RDFFSNAP"

// Version is the format version this package writes and the only one it
// reads.
const Version = 3

// ErrBadMagic reports that the input does not start with the snapshot magic.
var ErrBadMagic = errors.New("snapshot: not a snapshot file (bad magic)")

// ErrChecksum reports a CRC mismatch: the file is corrupted.
var ErrChecksum = errors.New("snapshot: checksum mismatch (file corrupted)")

// UnsupportedVersionError reports a snapshot written by a format version
// this build does not understand.
type UnsupportedVersionError struct {
	Got uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d not supported (this build reads version %d)", e.Got, Version)
}

// Write serializes st to w in snapshot format.
func Write(w io.Writer, st *store.Store) error {
	cw := &crcWriter{w: bufio.NewWriterSize(w, 1<<16)}
	cw.bytes([]byte(Magic))
	cw.u32(Version)

	dict := st.Dict()
	cw.uvarint(uint64(dict.Len()))
	for id := 1; id <= dict.Len(); id++ {
		t := dict.Decode(store.ID(id))
		cw.byte(byte(t.Kind))
		cw.str(t.Value)
		if t.Kind == rdf.LiteralKind {
			cw.str(t.Datatype)
			cw.str(t.Lang)
		}
	}

	uris := st.GraphURIs()
	cw.uvarint(uint64(len(uris)))
	for _, uri := range uris {
		cw.str(uri)
		// Triples is the live content in SPO order: a snapshot never holds
		// tombstones, so reopening one is always a compacted store.
		triples := st.Graph(uri).Triples()
		cw.uvarint(uint64(len(triples)))
		for _, t := range triples {
			cw.u32(uint32(t.S))
			cw.u32(uint32(t.P))
			cw.u32(uint32(t.O))
		}
	}

	// The trailer carries the checksum of everything before it, so it is
	// written around the CRC accumulation.
	crc := cw.crc
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	cw.bytes(trailer[:])
	if cw.err != nil {
		return fmt.Errorf("snapshot: write: %w", cw.err)
	}
	return cw.w.Flush()
}

// Read deserializes a snapshot into a fresh store. It fails with ErrBadMagic
// on foreign input, an *UnsupportedVersionError on a future format, and
// ErrChecksum or a descriptive corruption error on damaged files.
//
// The whole snapshot is buffered in memory: the checksum is verified in one
// vectorized pass before any byte is interpreted, and every term string is
// then carved as a substring of one arena string covering the term table
// (see readTerms) rather than allocated individually — snapshots are
// several times smaller than the store they describe, and this is a large
// part of why reopening beats re-parsing.
func Read(r io.Reader) (*store.Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return decode(data)
}

// decode interprets a fully-buffered snapshot.
func decode(data []byte) (*store.Store, error) {
	// Minimum well-formed file: magic, version, two zero-count sections,
	// trailer.
	if len(data) < len(Magic) {
		return nil, ErrBadMagic
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if len(data) < len(Magic)+4+2+4 {
		return nil, truncated(io.ErrUnexpectedEOF)
	}
	version := binary.LittleEndian.Uint32(data[len(Magic):])
	if version != Version {
		return nil, &UnsupportedVersionError{Got: version}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}

	p := &parser{data: body, pos: len(Magic) + 4}

	dict, err := readTerms(p)
	if err != nil {
		return nil, err
	}
	st := store.NewWithDictionary(dict)

	graphCount, err := p.uvarint()
	if err != nil {
		return nil, truncated(err)
	}
	for i := uint64(0); i < graphCount; i++ {
		uri, err := p.string()
		if err != nil {
			return nil, fmt.Errorf("snapshot: graph %d uri: %w", i, err)
		}
		triples, err := readTriples(p)
		if err != nil {
			return nil, fmt.Errorf("snapshot: graph <%s>: %w", uri, err)
		}
		if err := st.BulkGraph(uri, triples); err != nil {
			return nil, fmt.Errorf("snapshot: graph <%s>: %w", uri, err)
		}
	}
	if p.pos != len(body) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after graph data", len(body)-p.pos)
	}
	return st, nil
}

// WriteFile atomically writes st's snapshot to path: the bytes go to a
// temporary file in the same directory, are synced, and replace path by
// rename, so a crash never leaves a half-written snapshot behind.
func WriteFile(path string, st *store.Store) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Write(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// CreateTemp makes the file 0600; match the 0644 the sibling N-Triples
	// dumps get so another user (e.g. a service account) can open it.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile opens the snapshot at path. The file is read whole in one
// size-hinted allocation (see Read for why buffering the snapshot is the
// right trade).
func ReadFile(path string) (*store.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// readTerms parses the term table in two passes: the first checks every
// entry and finds where the table ends, the second carves every term
// string out of one arena string covering exactly the term-table bytes and
// hands the terms straight to the dictionary. Sharing one backing array
// makes term loading allocation-free per term, while copying only the
// table — not the whole file — lets the (much larger) triple section be
// garbage-collected once decoding finishes.
func readTerms(p *parser) (*store.Dictionary, error) {
	count, err := p.uvarint()
	if err != nil {
		return nil, truncated(err)
	}
	if count > store.MaxTerms {
		return nil, fmt.Errorf("snapshot: term table claims %d terms, exceeding the id space", count)
	}
	// A term is at least a kind byte and a length byte.
	if count > uint64(len(p.data)-p.pos)/2 {
		return nil, truncated(io.ErrUnexpectedEOF)
	}
	start := p.pos
	for i := uint64(0); i < count; i++ {
		if _, err := p.term(""); err != nil {
			return nil, fmt.Errorf("snapshot: term %d: %w", i+1, err)
		}
	}
	table := &parser{data: p.data[start:p.pos]}
	arena := string(table.data)
	dict, err := store.NewDictionaryFrom(int(count), func(yield func(rdf.Term) bool) {
		for table.pos < len(table.data) {
			if t, _ := table.term(arena); !yield(t) {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return dict, nil
}

// readTriples copies one graph's triple array out of the file, checking
// that the order is strictly ascending — the one order Write produces,
// which also rules out repeats. store.BulkGraph checks the ids.
func readTriples(p *parser) ([]store.IDTriple, error) {
	count, err := p.uvarint()
	if err != nil {
		return nil, truncated(err)
	}
	if count > uint64(len(p.data)-p.pos)/12 {
		return nil, truncated(io.ErrUnexpectedEOF)
	}
	triples := make([]store.IDTriple, count)
	var prev store.IDTriple
	for i := range triples {
		raw := p.data[p.pos+12*i:]
		t := store.IDTriple{
			S: store.ID(binary.LittleEndian.Uint32(raw)),
			P: store.ID(binary.LittleEndian.Uint32(raw[4:])),
			O: store.ID(binary.LittleEndian.Uint32(raw[8:])),
		}
		if t.S < prev.S || t.S == prev.S && (t.P < prev.P || t.P == prev.P && t.O <= prev.O) {
			return nil, fmt.Errorf("triple %d (%d %d %d) is not after its predecessor in SPO order", i, t.S, t.P, t.O)
		}
		triples[i], prev = t, t
	}
	p.pos += 12 * len(triples)
	return triples, nil
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("snapshot: truncated file: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("snapshot: %w", err)
}

// parser walks the checksum-verified body.
type parser struct {
	data []byte
	pos  int
}

func (p *parser) byte() (byte, error) {
	if p.pos >= len(p.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := p.data[p.pos]
	p.pos++
	return b, nil
}

func (p *parser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, errors.New("malformed varint")
	}
	p.pos += n
	return v, nil
}

// string reads a length-prefixed string as a fresh copy; used for the few
// strings outside the term table (graph URIs), where a copy is cheaper than
// pinning the file buffer.
func (p *parser) string() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", truncated(err)
	}
	if n > uint64(len(p.data)-p.pos) {
		return "", truncated(io.ErrUnexpectedEOF)
	}
	s := string(p.data[p.pos : p.pos+int(n)])
	p.pos += int(n)
	return s, nil
}

// term reads one term-table entry, cutting its strings from arena, which
// holds the bytes of p.data; with an empty arena it only checks the entry.
func (p *parser) term(arena string) (t rdf.Term, err error) {
	kind, err := p.byte()
	if err != nil {
		return t, err
	}
	switch t.Kind = rdf.TermKind(kind); t.Kind {
	case rdf.IRIKind, rdf.BlankKind:
		t.Value, err = p.cut(arena)
	case rdf.LiteralKind:
		if t.Value, err = p.cut(arena); err == nil {
			if t.Datatype, err = p.cut(arena); err == nil {
				t.Lang, err = p.cut(arena)
			}
		}
	default:
		err = fmt.Errorf("invalid kind byte %d", kind)
	}
	return t, err
}

// cut advances past a length-prefixed string and returns it as a substring
// of arena, or "" when arena is empty.
func (p *parser) cut(arena string) (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(p.data)-p.pos) {
		return "", io.ErrUnexpectedEOF
	}
	start := p.pos
	p.pos += int(n)
	if arena == "" {
		return "", nil
	}
	return arena[start:p.pos], nil
}

// crcWriter accumulates a CRC over everything written and holds the first
// error so call sites stay linear.
type crcWriter struct {
	w       *bufio.Writer
	crc     uint32
	err     error
	scratch [binary.MaxVarintLen64]byte
}

func (cw *crcWriter) bytes(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	_, cw.err = cw.w.Write(p)
}

func (cw *crcWriter) byte(b byte) {
	cw.scratch[0] = b
	cw.bytes(cw.scratch[:1])
}

func (cw *crcWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	cw.bytes(buf[:])
}

func (cw *crcWriter) uvarint(v uint64) {
	n := binary.PutUvarint(cw.scratch[:], v)
	cw.bytes(cw.scratch[:n])
}

func (cw *crcWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, []byte(s))
	_, cw.err = cw.w.WriteString(s)
}
