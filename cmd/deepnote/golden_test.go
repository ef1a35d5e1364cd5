package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record the golden outputs under testdata/")

// goldenRuns are the deterministic serving campaigns pinned byte for byte:
// stdout goes to testdata/<name>.txt and the -metrics snapshot to
// testdata/<name>.metrics.json. CI runs the same argument lists at one
// worker and compares its files against these.
var goldenRuns = []struct {
	name string
	run  func([]string) error
	args string
}{
	{"cluster", cmdCluster, "-workers 1"},
	{"cluster-defended-cell", cmdCluster, "-defense -attack-stagger 0.1 -requests 300 -rate 500 -cell 3 -cell-workers 1"},
	{"sonar", cmdSonar, "-workers 1"},
	{"fleet", cmdFleet, "-workers 1 -cell-workers 1"},
}

// TestGoldenOutputs reruns each pinned campaign in process and diffs its
// stdout and metrics snapshot against the committed goldens. Re-record
// after an intended model change with
//
//	go test ./cmd/deepnote -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			metricsPath := filepath.Join(t.TempDir(), "metrics.json")
			args := append(strings.Fields(g.args), "-metrics", metricsPath)
			stdout := captureStdout(t, func() error { return g.run(args) })
			snap, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", g.name+".txt"), stdout)
			checkGolden(t, filepath.Join("testdata", g.name+".metrics.json"), snap)
		})
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed; stderr (the per-layer summary table) is discarded.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, devnull
	runErr := fn()
	os.Stdout, os.Stderr = stdout, stderr
	w.Close()
	b := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return b
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n%s", path, firstDiff(want, got))
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "outputs differ only in length"
}
