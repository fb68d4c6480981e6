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
// write N-Triples term syntax instead (loss-free for round trips).
func (df *DataFrame) WriteCSV(w io.Writer, full bool) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(df.cols); err != nil {
		return err
	}
	record := make([]string, len(df.cols))
	for i := 0; i < df.n; i++ {
		for j, c := range df.row(i) {
			switch t := df.terms[c]; {
			case !t.IsBound():
				record[j] = ""
			case full:
				record[j] = t.String()
			default:
				record[j] = t.Value
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
