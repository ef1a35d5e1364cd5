package main

import (
	"math"
	"testing"
	"time"
)

// shortRun runs the workload at seed 1 for the shortest run measure
// allows: minCalls untraced calls, or one untraced and one traced cycle.
func shortRun(t *testing.T, name string, trace bool) map[string]metric {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	golden, err := loadGolden(1, name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := measure(runConfig{w: w, seed: 1, trace: trace, golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d of %d calls failed: %v", name, r.failed, r.attempted, r.failures)
	}
	m := map[string]metric{}
	if trace {
		layerMetrics(r, m)
	} else {
		e2eMetrics(r, nil, m)
	}
	return m
}

// abab runs exfil_decode without the spin, with it, without and with
// again, and returns the mean of each metric over each side, so a steady
// drift of host speed cancels out of the difference.
func abab(t *testing.T, spin time.Duration, trace bool) (base, spun map[string]float64) {
	t.Helper()
	defer func() { demodSpin = 0 }()
	base, spun = map[string]float64{}, map[string]float64{}
	for i := 0; i < 4; i++ {
		side := base
		demodSpin = 0
		if i%2 == 1 {
			side, demodSpin = spun, spin
		}
		for k, v := range shortRun(t, "exfil_decode", trace) {
			side[k] += v.Value / 2
		}
	}
	return base, spun
}

// TestSensitivity adds a fixed spin to every Receiver.Demodulate call and
// checks that the benchmark sees it where it should: exfil_decode's
// call_p50_ms rises by about the spin, and the traced ledger charges it to
// exfil.acquire.ms (the spin runs before acquisition, and decode is
// measured as full Demodulate minus the acquisition probe) while the
// other exfil layers stay flat. The other workloads never call
// Receiver.Demodulate, so by construction they cannot see the spin; they
// are not run here.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exfil_decode for over a minute")
	}
	const spin = 25 * time.Millisecond
	spinMS := float64(spin) / 1e6
	near := func(what string, got, want float64) {
		t.Helper()
		t.Logf("%s moved %.2f ms (want %.2f ms)", what, got, want)
		if math.Abs(got-want) > spinMS/2 {
			t.Errorf("%s moved %.2f ms, want %.2f ms ± %.2f ms", what, got, want, spinMS/2)
		}
	}

	base, spun := abab(t, spin, false)
	near("exfil_decode call_p50_ms", spun["call_p50_ms"]-base["call_p50_ms"], spinMS)

	base, spun = abab(t, spin, true)
	near("exfil.acquire.ms", spun["exfil.acquire.ms"]-base["exfil.acquire.ms"], spinMS)
	for _, l := range []string{"exfil.encode.ms", "exfil.render.ms", "exfil.decode.ms", "layer.other.ms"} {
		near(l, spun[l]-base[l], 0)
	}
}
