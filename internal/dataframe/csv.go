package dataframe

import (
	"encoding/csv"
	"fmt"
	"io"

	"rdfframes/internal/rdf"
)

// WriteCSV writes the dataframe as CSV with a header row: the handoff
// format for ML tools outside this process. IRIs and literal lexical forms
// are written as their plain values; nulls as empty cells. Set full to
// write N-Triples term syntax instead (loss-free for round trips). The
// encoder is the export's (CSVStream), over the frame's own term table.
func (df *DataFrame) WriteCSV(w io.Writer, full bool) error {
	s := NewCSVStream(w, 0, full)
	if err := s.WriteHeader(df.cols); err != nil {
		return err
	}
	if _, err := s.WriteRows(df.terms, df.cells, df.n); err != nil {
		return err
	}
	return s.Flush()
}

// ReadCSV reads a dataframe written by WriteCSV with full=true: a header
// row followed by N-Triples-syntax cells (empty cells become nulls).
func ReadCSV(r io.Reader) (*DataFrame, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataframe: reading CSV header: %w", err)
	}
	df := New(header...)
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			return df, nil
		}
		if err != nil {
			return nil, err
		}
		row := make([]rdf.Term, len(header))
		for j, cell := range record {
			if cell == "" {
				continue
			}
			t, err := rdf.ParseTerm(cell)
			if err != nil {
				return nil, fmt.Errorf("dataframe: line %d column %s: %w", line, header[j], err)
			}
			row[j] = t
		}
		df.Append(row)
	}
}
