package main

import (
	"reflect"
	"testing"
)

func TestParseLineKeepsProcs(t *testing.T) {
	r, ok := parseLine("BenchmarkFoo-2   \t  1000\t  1234 ns/op\t  56 B/op\t  3 allocs/op\t  9.5 qps")
	if !ok {
		t.Fatal("benchmark line not parsed")
	}
	b, a := int64(56), int64(3)
	want := result{Name: "BenchmarkFoo", Procs: 2, Runs: 1000, NsPerOp: 1234,
		BytesPerOp: &b, AllocsPerOp: &a, Metrics: map[string]float64{"qps": 9.5}}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("got %+v, want %+v", r, want)
	}
}

func TestParseLineWithoutProcsSuffix(t *testing.T) {
	for line, name := range map[string]string{
		"BenchmarkFoo 10 5 ns/op":                        "BenchmarkFoo",
		"BenchmarkEpochVectorSample/shards=4 10 5 ns/op": "BenchmarkEpochVectorSample/shards=4",
		"BenchmarkBar/size-x 10 5 ns/op":                 "BenchmarkBar/size-x",
	} {
		r, ok := parseLine(line)
		if !ok {
			t.Fatalf("%q not parsed", line)
		}
		if r.Name != name || r.Procs != 0 {
			t.Errorf("%q: name %q procs %d, want %q procs 0", line, r.Name, r.Procs, name)
		}
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{"", "PASS", "ok  \trepro\t0.5s", "BenchmarkFoo-2 \tFAIL x y", "goos: linux"} {
		if _, ok := parseLine(line); ok {
			t.Errorf("%q parsed as a result", line)
		}
	}
}
