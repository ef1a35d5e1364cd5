package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

const (
	// minCalls gives call_p90_ms at least ten samples beyond it.
	minCalls = 100
	// setupProbes is how many fresh processes measure setup_s.
	setupProbes = 20
	// goldenFile holds per-cell output digests, keyed by seed.
	goldenFile = "golden.json"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetric is one per-layer figure of the traced run.
type layerMetric struct {
	name, unit string
}

// perLayer lists every per-layer metric in output order. A workload
// reports zero for the layers it never enters.
var perLayer = func() []layerMetric {
	var out []layerMetric
	for _, w := range workloads {
		for _, n := range w.layers {
			out = append(out, layerMetric{n, unitOf(n)})
		}
	}
	out = append(out, layerMetric{"layer.other.ms", "ms"}, layerMetric{"trace.overhead_frac", "frac"})
	for _, p := range profPackages {
		out = append(out, layerMetric{"prof." + p + ".frac", "frac"})
	}
	return append(out, layerMetric{"prof.samples", "count"})
}()

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, ".frac"):
		return "frac"
	case strings.HasSuffix(name, "_per_request"):
		return "ops/req"
	}
	return "count"
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := flag.Int("setup-probe", -1, "set up the workload with a warm-up call of this cell, print the set-up seconds and exit (used for setup_s)")
	update := flag.Bool("update-golden", false, "record every workload's per-cell digests for -seed in "+goldenFile)
	flag.Parse()
	var err error
	switch {
	case *update:
		err = updateGolden(*seed)
	case *probe >= 0:
		err = setupProbe(*name, *seed, *probe, start)
	default:
		err = run(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupProbe sets the workload up with a warm-up call of cell warm and
// prints the seconds since start (the top of main) on one line.
func setupProbe(name string, seed int64, warm int, start time.Time) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if _, err := setup(w, seed, warm); err != nil {
		return err
	}
	fmt.Printf("ready %.9f\n", time.Since(start).Seconds())
	return nil
}

func run(name string, seed int64, seconds float64, trace bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	golden, err := loadGolden(seed, w.name)
	if err != nil {
		return err
	}
	cfg := runConfig{w: w, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), trace: trace, golden: golden}
	var setups []float64
	if !trace {
		if setups, err = probeSetup(w.name, seed); err != nil {
			return err
		}
	}
	r, err := measure(cfg)
	if err != nil {
		return err
	}
	for i, d := range r.digests {
		fmt.Printf("digest %s %s %s\n", w.name, r.cellNames[i], d)
	}
	var spansPath string
	if trace {
		// The spans go beside the binary, in the build directory.
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		spansPath = filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		if err := writeSpans(spansPath, r.spans); err != nil {
			return err
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	ctx := map[string]any{
		"host": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"goarch": runtime.GOARCH, "go": runtime.Version(),
		},
		"workload": w.name, "why": w.why, "seed": seed, "cells": len(r.cellNames),
		"cycles": r.cycles, "golden_checked": golden != nil, "layers": w.layers,
	}
	if trace {
		ctx["traced_calls"], ctx["untraced_calls"], ctx["spans"] = r.led.calls, len(r.callNS), spansPath
		ctx["trace_note"] = "per-layer .ms are mean host self time per traced call; counts are exact per-call means; " +
			"exfil.acquire is a probe call left out of the call time; prof.* are sampled (100 Hz) over traced Serve calls, never gated"
		layerMetrics(r, rep.Metrics)
	} else {
		ctx["calls"], ctx["setup_probes"] = r.attempted, len(setups)
		e2eMetrics(r, setups, rep.Metrics)
	}
	cj, _ := json.Marshal(ctx)
	fmt.Printf("# context %s\n", cj)
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runConfig is one measured run.
type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// golden maps cell name to the committed digest; nil when the seed
	// has none.
	golden map[string]string
}

// runResult is what a run measured.
type runResult struct {
	attempted, failed int
	failures          []string
	cycles            int
	cellNames         []string
	digests           []string // first digest seen per cell
	// Untraced calls.
	callNS     []int64
	simS       float64
	hostNS     int64
	allocBytes uint64
	// Traced calls.
	led    ledger
	spans  []span
	counts map[string]float64
	aggs   map[string]*agg
	prof   profile
}

// setup makes the cell list and runs one untimed warm-up call of cell
// warm (modulo the list), so lazy one-time costs land in set-up rather
// than in the first timed call.
func setup(w workload, seed int64, warm int) ([]cell, error) {
	cells := w.cells(seed)
	chk, err := cells[warm%len(cells)].run(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	chk()
	return cells, nil
}

// probeSetup measures setup_s in fresh processes, so each set-up pays
// every lazy one-time cost. Probe i warms up on cell i, so the median
// covers the workload's cell mix rather than one cell's cost. Each probe
// times itself from the top of main to ready: process creation and the
// loader are left out, as they are not the program's and only add noise.
func probeSetup(name string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-setup-probe", fmt.Sprint(i))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		var d float64
		if _, serr := fmt.Sscanf(string(b), "ready %g\n", &d); err != nil || serr != nil {
			return nil, fmt.Errorf("setup probe: %q %v", b, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// measure runs the workload's cell list whole cycles at a time, one call
// at a time, until the time is up (and, untraced, at least minCalls calls
// ran). A traced run alternates untraced and traced cycles: the untraced
// ones are the reference for the traced digests and for the tracing
// overhead.
func measure(cfg runConfig) (runResult, error) {
	cells, err := setup(cfg.w, cfg.seed, 0)
	if err != nil {
		return runResult{}, err
	}
	r := runResult{digests: make([]string, len(cells))}
	for _, c := range cells {
		r.cellNames = append(r.cellNames, c.name)
	}
	var tr *tracer
	var profBuf bytes.Buffer
	if cfg.trace {
		tr = newTracer()
		if cfg.w.serving {
			if err := pprof.StartCPUProfile(&profBuf); err != nil {
				return r, err
			}
		}
	}
	fail := func(msg string) {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, msg)
		}
	}
	var ms0, ms1 runtime.MemStats
	begin := time.Now()
	for ; ; r.cycles++ {
		traced := cfg.trace && r.cycles%2 == 1
		for i, c := range cells {
			r.attempted++
			var chk func() outcome
			if traced {
				tr.begin(int32(r.attempted))
				chk, err = c.run(tr)
				tr.end()
			} else {
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				chk, err = c.run(nil)
				d := time.Since(t0)
				runtime.ReadMemStats(&ms1)
				r.callNS = append(r.callNS, int64(d))
				r.hostNS += int64(d)
				r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			}
			if err != nil {
				fail(fmt.Sprintf("%s: %v", c.name, err))
				continue
			}
			out := chk()
			if !traced {
				r.simS += out.sim
			}
			// A call fails once: on a broken invariant, on a digest that
			// differs from this run's earlier call of the cell (which, in a
			// traced run, is the untraced reference), or on a golden miss.
			var bad string
			switch {
			case out.bad != nil:
				bad = out.bad.Error()
			case r.digests[i] != "" && r.digests[i] != out.digest:
				bad = fmt.Sprintf("digest %s differs from this run's earlier %s (traced %v)", out.digest, r.digests[i], traced)
			case cfg.golden != nil && cfg.golden[c.name] != out.digest:
				bad = fmt.Sprintf("digest %s, golden %q", out.digest, cfg.golden[c.name])
			}
			if r.digests[i] == "" {
				r.digests[i] = out.digest
			}
			if bad != "" {
				fail(c.name + ": " + bad)
			}
		}
		if time.Since(begin) < cfg.seconds {
			continue
		}
		if cfg.trace && r.cycles >= 1 || !cfg.trace && r.attempted >= minCalls {
			r.cycles++
			break
		}
	}
	if cfg.trace {
		r.led = tr.ledger()
		r.spans = tr.spans
		r.counts = tr.counts
		r.aggs = tr.aggs
		if cfg.w.serving {
			pprof.StopCPUProfile()
			if r.prof, err = attribute(profBuf.Bytes()); err != nil {
				return r, err
			}
		}
	}
	return r, nil
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"name": s.name, "start_ns": s.start, "end_ns": s.end,
			"parent": s.parent, "call": s.call, "probe": s.probe,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func e2eMetrics(r runResult, setups []float64, m map[string]metric) {
	ns := append([]int64(nil), r.callNS...)
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	calls := float64(len(ns))
	m["setup_s"] = metric{median(setups), "s"}
	m["sim_s_per_s"] = metric{r.simS / (float64(r.hostNS) / 1e9), "s/s"}
	m["call_p50_ms"] = metric{quantile(ns, 0.5) / 1e6, "ms"}
	m["call_p90_ms"] = metric{quantile(ns, 0.9) / 1e6, "ms"}
	m["alloc_mb_per_call"] = metric{float64(r.allocBytes) / calls / 1e6, "MB"}
	m["ok_frac"] = metric{float64(r.attempted-r.failed) / float64(r.attempted), "frac"}
}

func layerMetrics(r runResult, m map[string]metric) {
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	// set records a metric of the per-layer list; helper counts that only
	// feed a ratio are not reported.
	set := func(name string, v float64) {
		if mm, ok := m[name]; ok {
			m[name] = metric{v, mm.Unit}
		}
	}
	calls := float64(r.led.calls)
	self := r.led.selfNS
	if d, ok := self["exfil.demodulate"]; ok {
		self["exfil.decode"] = d - self["exfil.acquire"]
	}
	for name, ns := range self {
		set(name+".ms", float64(ns)/calls/1e6)
	}
	set("layer.other.ms", float64(r.led.other)/calls/1e6)
	untraced := append([]int64(nil), r.callNS...)
	sort.Slice(untraced, func(i, j int) bool { return untraced[i] < untraced[j] })
	if base := quantile(untraced, 0.5); base > 0 {
		set("trace.overhead_frac", quantile(r.led.callNS, 0.5)/base-1)
	}
	c := r.counts
	for name, v := range c {
		set(name, v/calls)
	}
	for name, a := range r.aggs {
		set(name+".count", float64(a.count)/calls)
		set(name+".failed", float64(a.failed)/calls)
	}
	if c["exfil.frames_sent"] > 0 {
		set("exfil.frames_ok_frac", c["exfil.frames_ok"]/c["exfil.frames_sent"])
	}
	if c["cluster.requests"] > 0 {
		set("cluster.ops_per_request", c["cluster.shard_ops"]/c["cluster.requests"])
	}
	if c["fleet.requests"] > 0 {
		set("fleet.ops_per_request", c["fleet.shard_ops"]/c["fleet.requests"])
	}
	if r.prof.samples > 0 {
		for _, p := range profPackages {
			set("prof."+p+".frac", r.prof.frac(p))
		}
		set("prof.samples", float64(r.prof.samples))
	}
}

// loadGolden returns the committed digests of the workload's cells at
// seed, or nil when the seed has none.
func loadGolden(seed int64, workload string) (map[string]string, error) {
	all, err := readGolden()
	if err != nil {
		return nil, err
	}
	return all[fmt.Sprint(seed)][workload], nil
}

// goldenPath locates golden.json beside the benchmark's sources: the
// working directory is the repository root or the benchmark directory.
func goldenPath() string {
	if fi, err := os.Stat("perfbench"); err == nil && fi.IsDir() {
		return filepath.Join("perfbench", goldenFile)
	}
	return goldenFile
}

func readGolden() (map[string]map[string]map[string]string, error) {
	all := map[string]map[string]map[string]string{}
	b, err := os.ReadFile(goldenPath())
	if errors.Is(err, os.ErrNotExist) {
		return all, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return all, nil
}

// updateGolden runs one untraced cycle of every workload at seed and
// records the per-cell digests, refusing to record a broken invariant.
func updateGolden(seed int64) error {
	all, err := readGolden()
	if err != nil {
		return err
	}
	bySeed := map[string]map[string]string{}
	for _, w := range workloads {
		bySeed[w.name] = map[string]string{}
		for _, c := range w.cells(seed) {
			chk, err := c.run(nil)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, c.name, err)
			}
			out := chk()
			if out.bad != nil {
				return fmt.Errorf("%s %s: %w", w.name, c.name, out.bad)
			}
			bySeed[w.name][c.name] = out.digest
		}
	}
	all[fmt.Sprint(seed)] = bySeed
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(), append(b, '\n'), 0o644)
}
