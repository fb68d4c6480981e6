package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText reads Prometheus text exposition format and returns every
// sample as series-name-with-labels -> value, plus the family -> type map
// from the # TYPE lines. It accepts exactly what WritePrometheus emits
// (and the common subset real exporters produce); it exists so the server
// tests can check a scraped /metrics without a Prometheus dependency.
func ParseText(r io.Reader) (samples map[string]float64, types map[string]MetricType, err error) {
	samples = map[string]float64{}
	types = map[string]MetricType{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				types[fields[2]] = MetricType(fields[3])
			}
			continue
		}
		// A sample line is "name{labels} value [timestamp]"; the label block
		// may contain spaces inside quoted values, so split on the last
		// closing brace when present.
		name, rest := line, ""
		if i := strings.Index(line, "}"); i >= 0 {
			name, rest = line[:i+1], strings.TrimSpace(line[i+1:])
		} else if i := strings.IndexAny(line, " \t"); i >= 0 {
			name, rest = line[:i], strings.TrimSpace(line[i:])
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, nil, fmt.Errorf("obs: metrics line %d: no value: %q", lineNo, line)
		}
		v, perr := strconv.ParseFloat(fields[0], 64)
		if perr != nil {
			return nil, nil, fmt.Errorf("obs: metrics line %d: bad value %q: %v", lineNo, fields[0], perr)
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return samples, types, nil
}

// FamilyOf strips the label suffix and histogram sub-series suffixes from
// a sample name, returning the family it belongs to: for example
// rdfframes_query_seconds_bucket{le="1"} -> rdfframes_query_seconds.
func FamilyOf(sample string) string {
	if i := strings.IndexByte(sample, '{'); i >= 0 {
		sample = sample[:i]
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(sample, suffix) {
			return sample[:len(sample)-len(suffix)]
		}
	}
	return sample
}
