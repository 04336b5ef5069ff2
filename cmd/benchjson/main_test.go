package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseAttributesEachPackage feeds output concatenated from two
// `go test -bench` runs: every entry must carry the package whose
// header preceded it, not the last header in the stream.
func TestParseAttributesEachPackage(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro/internal/forest
cpu: Test CPU
BenchmarkForestFit-2   	       2	  51234567 ns/op
BenchmarkForestPredictAll-2   	       2	  56000000 ns/op	   82000 B/op	       2 allocs/op
PASS
ok  	repro/internal/forest	1.2s
goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU
BenchmarkPoolScoring-2   	       2	  12600000 ns/op	  0.93 pearson
PASS
ok  	repro	3.4s
`
	rep, err := parse(strings.NewReader(in), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, pkg string }{
		{"BenchmarkForestFit", "repro/internal/forest"},
		{"BenchmarkForestPredictAll", "repro/internal/forest"},
		{"BenchmarkPoolScoring", "repro"},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, w := range want {
		if e := rep.Benchmarks[i]; e.Name != w.name || e.Package != w.pkg {
			t.Errorf("entry %d = %s in %q, want %s in %q", i, e.Name, e.Package, w.name, w.pkg)
		}
	}
	if got := rep.Benchmarks[1].Metrics["allocs/op"]; got != 2 {
		t.Errorf("allocs/op = %v, want 2", got)
	}
	if got := rep.Context["cpu"]; got != "Test CPU" {
		t.Errorf("cpu context = %q", got)
	}
	if _, ok := rep.Context["pkg"]; ok {
		t.Error("pkg still recorded as run-wide context")
	}
}

func TestParseRejectsInputWithoutResults(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok  \trepro\t0.1s\n"), io.Discard); err == nil {
		t.Fatal("output with no benchmark lines accepted")
	}
}
