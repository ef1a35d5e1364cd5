package main

import (
	"time"

	"deepnote/internal/campaign"
	"deepnote/internal/core"
	"deepnote/internal/detect"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// tracedFingerprint rebuilds campaign.FingerprintSpec.Run from the public
// calls it makes, timing each layer: the victim's writes through the rig
// disk and the latency detector, and per analysis window the telemetry
// synth, the spectral fingerprinter and the fused verdict. It supports the
// specs fingerprintCells builds (default scenario, tone and standoff;
// full acoustic chain), and its result must equal Run's on the same spec.
func tracedFingerprint(s campaign.FingerprintSpec, tr *tracer) (campaign.FingerprintResult, error) {
	freq := 650 * units.Hz
	rig, err := core.NewRig(core.Scenario2, 1*units.Centimeter, s.Seed)
	if err != nil {
		return campaign.FingerprintResult{}, err
	}
	mon, err := detect.NewMonitor(rig.Disk, rig.Clock, s.Detector)
	if err != nil {
		return campaign.FingerprintResult{}, err
	}
	fp, err := detect.NewFingerprinter(s.Fingerprint)
	if err != nil {
		return campaign.FingerprintResult{}, err
	}
	origin := rig.Clock.Now()
	fp.SetOrigin(origin)
	synth := detect.NewSynth(fp.SampleRate(), fp.WindowSamples(),
		detect.DefaultSensorSigma, parallel.SeedFor(s.Seed, 1))
	det := mon.Detector()
	fused := &detect.Fused{Telemetry: det, Spectral: fp}
	var res campaign.FingerprintResult

	write := tr.aggregate("blockdev.write")
	observe := tr.aggregate("detect.observe")
	synthA := tr.aggregate("detect.synth")
	feed := tr.aggregate("detect.feed")
	verdict := tr.aggregate("detect.verdict")

	winDur := fp.WindowDuration()
	attackAt := origin.Add(s.AttackStart)
	attacking := false
	emitted := 0
	emit := func() {
		t0 := tr.now()
		w := synth.Window(rig.Drive.Vibration(), s.Ambient)
		t1 := tr.now()
		fp.Feed(w)
		t2 := tr.now()
		fused.SMARTSuspect = !rig.Drive.SMARTHealthy()
		now := rig.Clock.Now()
		fused.Verdict(now)
		if sus := det.Suspicion(now); sus > res.MaxSuspicion {
			res.MaxSuspicion = sus
		}
		t3 := tr.now()
		synthA.count++
		synthA.ns += t1 - t0
		feed.count++
		feed.ns += t2 - t1
		verdict.count++
		verdict.ns += t3 - t2
		emitted++
	}

	buf := make([]byte, 4096)
	var off int64
	for rig.Clock.Now().Sub(origin) < s.Duration {
		if !attacking && !rig.Clock.Now().Before(attackAt) {
			rig.ApplyTone(sig.NewTone(freq))
			attacking = true
		}
		start := rig.Clock.Now()
		t0 := tr.now()
		_, werr := rig.Disk.WriteAt(buf, off%(1<<24))
		t1 := tr.now()
		now := rig.Clock.Now()
		det.Observe(now, now.Sub(start), werr != nil)
		t2 := tr.now()
		write.count++
		write.ns += t1 - t0
		if werr != nil {
			write.failed++
		}
		observe.count++
		observe.ns += t2 - t1
		off += 4096
		for !origin.Add(time.Duration(emitted+1) * winDur).After(rig.Clock.Now()) {
			emit()
		}
	}
	rig.Silence()

	res.Windows = fp.Windows()
	res.HostileWindows = fp.HostileWindows()
	res.SpectralAlarms = fp.Alarms
	res.TelemetryAlarms = det.Alarms
	res.FusedAlarms = fused.Alarms
	res.MaxConfidence = fp.MaxConfidence()
	res.SMARTHealthy = rig.Drive.SMARTHealthy()
	res.BenignWindows = int(s.AttackStart / winDur)
	for _, d := range fp.Detections() {
		if d.At.Before(attackAt) {
			res.FalsePositives++
			continue
		}
		if !res.Detected {
			res.Detected = true
			res.DetectLatency = d.At.Sub(attackAt)
			res.DetectedFreq = d.PeakFreq
			res.Confidence = d.Confidence
		}
	}
	if res.BenignWindows > 0 {
		res.FPRate = float64(res.FalsePositives) / float64(res.BenignWindows)
	}
	return res, nil
}
