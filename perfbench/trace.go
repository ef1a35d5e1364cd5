package main

import (
	"math/rand"
	"sort"
	"time"
)

// span is one coarse layer call inside a benchmark call: name, start and
// end in ns since the run began, the parent span's index (-1 for a call's
// root) and the call it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	call       int32
	probe      bool // instrument-only work, not part of the program's call
}

// agg is the per-layer aggregate kept for per-I/O calls, which run tens
// of thousands of times per benchmark call: spans for each would distort
// the run they measure.
type agg struct {
	count, failed int64
	ns            int64
}

// tracer records spans and aggregates from the benchmark's own files,
// around its calls into each layer's public API. A nil tracer records
// nothing and costs one branch per call site.
type tracer struct {
	epoch  time.Time
	spans  []span
	aggs   map[string]*agg
	counts map[string]float64
	root   int32
	call   int32
	rng    *rand.Rand
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), aggs: map[string]*agg{}, counts: map[string]float64{}, root: -1,
		rng: rand.New(rand.NewSource(1))}
}

// coin is a fair, reproducible coin flip; false on a nil tracer.
func (t *tracer) coin() bool { return t != nil && t.rng.Intn(2) == 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the root span of call id.
func (t *tracer) begin(call int32) {
	t.call = call
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{name: "call", start: t.now(), parent: -1, call: call})
}

// end closes the current root span.
func (t *tracer) end() {
	t.spans[t.root].end = t.now()
	t.root = -1
}

// span runs f as a child span of the current call.
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.record(name, false, f)
}

// probe runs f as a child span only when tracing: work the benchmark adds
// to observe a layer, charged to that layer but left out of the call time.
func (t *tracer) probe(name string, f func()) {
	if t == nil {
		return
	}
	t.record(name, true, f)
}

func (t *tracer) record(name string, probe bool, f func()) {
	s := span{name: name, start: t.now(), parent: t.root, call: t.call, probe: probe}
	f()
	s.end = t.now()
	t.spans = append(t.spans, s)
}

// aggregate returns the named per-I/O aggregate.
func (t *tracer) aggregate(name string) *agg {
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	return a
}

// count adds v to an exact per-layer counter.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// ledger is the per-layer breakdown of the traced calls.
type ledger struct {
	calls int
	// callNS holds each traced call's wall time minus its probes.
	callNS []int64
	selfNS map[string]int64
	other  int64
}

// ledger folds the recorded spans and aggregates. Every layer span is a
// direct child of its call's root, so a span's self time is its duration,
// and a call's uncovered time is its duration minus its children's.
// Per-I/O aggregates are children of the call too; their time counts
// against the call's uncovered time in total rather than per call.
func (t *tracer) ledger() ledger {
	l := ledger{selfNS: map[string]int64{}}
	var probeNS, childNS int64
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		switch {
		case s.parent < 0:
			l.calls++
			l.callNS = append(l.callNS, d)
			l.other += d
		case s.probe:
			probeNS += d
			l.callNS[len(l.callNS)-1] -= d
			l.selfNS[s.name] += d
		default:
			childNS += d
			l.selfNS[s.name] += d
		}
	}
	for name, a := range t.aggs {
		childNS += a.ns
		l.selfNS[name] += a.ns
	}
	l.other -= probeNS + childNS
	sort.Slice(l.callNS, func(i, j int) bool { return l.callNS[i] < l.callNS[j] })
	return l
}
