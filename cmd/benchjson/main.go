// Command benchjson converts `go test -bench` output on stdin into a
// benchstat-compatible JSON array, one object per benchmark line, so CI
// and BENCHMARKS.md updates can diff runs mechanically:
//
//	make bench-json BENCHN=6   # writes BENCH_6.json
//
// Each object carries the benchmark name, the GOMAXPROCS the run used
// (the name's -N suffix, as "procs"; absent when the name has none),
// iteration count, ns/op, B/op and allocs/op when present, and any
// custom ReportMetric values under "metrics".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// parseLine decodes one `BenchmarkFoo-8  123  456 ns/op  ...` line,
// returning ok=false for anything that is not a benchmark result.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name, procs := fields[0], 0
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			name, procs = name[:i], n
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Procs: procs, Runs: runs, NsPerOp: -1}
	// The remainder alternates value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			b := int64(val)
			r.BytesPerOp = &b
		case "allocs/op":
			a := int64(val)
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	if r.NsPerOp < 0 {
		return result{}, false
	}
	return r, true
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
}
