package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"deepnote/internal/campaign"
	"deepnote/internal/cluster"
	"deepnote/internal/exfil"
	"deepnote/internal/fleet"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
)

// outcome is what the benchmark checks after a call's timer stops.
type outcome struct {
	// sim is the simulated seconds the call completed.
	sim float64
	// digest fingerprints the call's full simulated output.
	digest string
	// bad is the first invariant the output broke, nil when all hold.
	bad error
}

// cell is one entry of a workload's cell list. run makes one call into
// the program — the part the benchmark times — and returns the check to
// run once the timer has stopped. A non-nil tracer records the call's
// layer spans; nil runs the program's own entry points untraced.
type cell struct {
	name string
	run  func(tr *tracer) (func() outcome, error)
}

// demodSpin is a fixed busy-wait added to every Receiver.Demodulate call;
// only the sensitivity self-test sets it.
var demodSpin time.Duration

// workload is one benchmark workload: its cell list is made from the
// seed, and each run covers that list a whole number of times.
type workload struct {
	name, why string
	// layers are the per-layer metrics this workload moves; each should
	// move this workload's call_p50_ms and sim_s_per_s.
	layers []string
	// serving workloads get the sampled package attribution of Serve.
	serving bool
	cells   func(seed int64) []cell
}

var workloads = []workload{
	{
		name: "exfil_decode",
		why:  "covert-channel offense cells whose host time is ~95% acquisition: the workload the exfil acquisition speedup must move, bypassing blockdev, detect and sched",
		layers: []string{"exfil.encode.ms", "exfil.render.ms", "exfil.acquire.ms", "exfil.decode.ms",
			"exfil.frames_ok_frac", "exfil.rs_corrections"},
		cells: exfilCells,
	},
	{
		name: "fingerprint_monitor",
		why:  "the full monitored-victim chain: 4 KiB writes through blockdev/hdd and Detector.Observe in the benign half, dsp.Bank and the classifier in the hostile half",
		layers: []string{"blockdev.write.ms", "blockdev.write.count", "blockdev.write.failed",
			"detect.observe.ms", "detect.synth.ms", "detect.feed.ms", "detect.feed.count",
			"detect.verdict.ms", "detect.hostile_windows"},
		cells: fingerprintCells,
	},
	{
		name: "cluster_defended",
		why:  "read-heavy single-site sched engine with steered and replica reads through netstore and blockdev, bypassing dsp, detect and exfil",
		layers: []string{"cluster.setup.ms", "sonar.detect.ms", "cluster.defense.ms", "cluster.serve.ms",
			"cluster.shard_ops", "cluster.shard_errors", "cluster.degraded_reads", "cluster.repair_writes",
			"cluster.steered_gets", "cluster.replica_reads", "cluster.evac_writes", "cluster.ops_per_request"},
		serving: true,
		cells:   clusterCells,
	},
	{
		name: "fleet_geo",
		why:  "write-heavy geo fleet tier (WAN, placement, gateway) under a blast, link flap and brownout, aware and naive placement in one call",
		layers: []string{"fleet.setup.ms", "fleet.serve.ms", "fleet.shard_ops", "fleet.cross_site_ops",
			"fleet.failover_waves", "fleet.hedged", "fleet.wan_drops", "fleet.breaker_opens", "fleet.shed",
			"fleet.ops_per_request"},
		serving: true,
		cells:   fleetCells,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest hashes a %+v rendering, which prints floats in their shortest
// round-trip form, so equal digests mean bit-identical outputs.
func digest(v any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", v)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// spinFor busy-waits d on the calling goroutine.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// ---- exfil_decode ----------------------------------------------------

const exfilBaud = 64.0

// exfilCells cycles {FSK, OOK} × 5 ambients × {5 m, 20 m}, one frame
// per call.
func exfilCells(seed int64) []cell {
	var cells []cell
	for _, scheme := range []exfil.Scheme{exfil.SchemeFSK, exfil.SchemeOOK} {
		for _, kind := range sig.AmbientKinds() {
			for _, dist := range []units.Distance{5 * units.Meter, 20 * units.Meter} {
				cs := parallel.SeedFor(seed, len(cells))
				cfg := exfil.ModemConfig{Scheme: scheme, SymbolRate: exfil.Ptr(exfilBaud)}
				md, err := exfil.NewModem(cfg)
				if err != nil {
					panic(err) // a constant config: only a bug rejects it
				}
				payload := make([]byte, md.MaxPayload())
				rand.New(rand.NewSource(parallel.SeedFor(cs, 1))).Read(payload)
				cells = append(cells, cell{
					name: fmt.Sprintf("%s/%s/%gm", scheme, kind, dist.Meters()),
					run: func(tr *tracer) (func() outcome, error) {
						return exfilCall(cfg, kind, dist, cs, payload, tr)
					},
				})
			}
		}
	}
	return cells
}

// exfilLink mirrors the capacity map's facility: one container in deep
// water with a hydrophone dist away.
func exfilLink(kind sig.AmbientKind, dist units.Distance, seed int64) exfil.Link {
	lay := cluster.LineLayout(1, 10*units.Meter)
	tx := lay.Containers[0].Pos
	arr := sonar.Array{
		Medium:       lay.EffectiveMedium(),
		SurfaceDepth: lay.SurfaceDepth,
		Hydrophones: []sonar.Hydrophone{
			{Name: "exfil-rx", Pos: cluster.Vec3{X: tx.X + float64(dist), Y: tx.Y, Z: tx.Z}},
		},
	}
	amb := sig.NewAmbient(kind, parallel.SeedFor(seed, 3))
	return exfil.Link{Array: arr, TxPos: tx, Ambient: amb, Seed: parallel.SeedFor(seed, 2)}
}

func exfilCall(cfg exfil.ModemConfig, kind sig.AmbientKind, dist units.Distance, seed int64,
	payload []byte, tr *tracer) (func() outcome, error) {
	mod, err := exfil.NewModulator(cfg, exfil.TxConfig{})
	if err != nil {
		return nil, err
	}
	rx, err := exfil.NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	demod := func(wave []float64, frames int) exfil.RxResult {
		if demodSpin > 0 {
			spinFor(demodSpin)
		}
		return rx.Demodulate(wave, frames)
	}
	var bits []byte
	tr.span("exfil.encode", func() { bits, err = mod.Modem().EncodeFrame(payload) })
	if err != nil {
		return nil, err
	}
	var wave []float64
	tr.span("exfil.render", func() { wave, _ = exfilLink(kind, dist, seed).Render(mod, bits) })
	// Demodulate with no frames to decode runs acquisition and preamble
	// training only: the probe that splits acquire from decode. It runs
	// before or after the real call at random, so whichever of the two
	// runs first over the fresh waveform does not bias the split.
	probeFirst := tr.coin()
	if probeFirst {
		tr.probe("exfil.acquire", func() { demod(wave, 0) })
	}
	var res exfil.RxResult
	tr.span("exfil.demodulate", func() { res = demod(wave, 1) })
	if !probeFirst {
		tr.probe("exfil.acquire", func() { demod(wave, 0) })
	}

	return func() outcome {
		out := outcome{sim: float64(len(wave)) / mod.Modem().SampleRate(), digest: digest(res)}
		ok := res.Synced && len(res.Frames) == 1 && res.Frames[0].OK && bytes.Equal(res.Frames[0].Payload, payload)
		// FSK at 5 m recovers bit-exact under every ambient. OOK at 64 baud
		// does not under rain, snapping shrimp or thermal creak even at
		// 5 m (measured), so its outcomes are pinned by the golden digests
		// instead.
		if cfg.Scheme == exfil.SchemeFSK && dist <= 5*units.Meter && !ok {
			out.bad = fmt.Errorf("5 m FSK frame not recovered bit-exact (synced %v, frames %d)", res.Synced, len(res.Frames))
		}
		tr.count("exfil.frames_sent", 1)
		if ok {
			tr.count("exfil.frames_ok", 1)
		}
		for _, f := range res.Frames {
			tr.count("exfil.rs_corrections", float64(f.Corrections))
		}
		return out
	}, nil
}

// ---- fingerprint_monitor ---------------------------------------------

const (
	fingerprintDuration = 10 * time.Second
	fingerprintKeyOn    = fingerprintDuration / 2
)

// fingerprintCells cycles the five ambients through the full §4.3 chain
// at 650 Hz, keying on at the midpoint.
func fingerprintCells(seed int64) []cell {
	var cells []cell
	for i, kind := range sig.AmbientKinds() {
		spec := campaign.FingerprintSpec{
			Ambient:     sig.NewAmbient(kind, parallel.SeedFor(seed, 100+i)),
			Duration:    fingerprintDuration,
			AttackStart: fingerprintKeyOn,
			Seed:        parallel.SeedFor(seed, i),
		}
		cells = append(cells, cell{
			name: kind.String(),
			run: func(tr *tracer) (func() outcome, error) {
				var res campaign.FingerprintResult
				var err error
				if tr == nil {
					res, err = spec.Run()
				} else {
					res, err = tracedFingerprint(spec, tr)
				}
				if err != nil {
					return nil, err
				}
				return func() outcome {
					res.Spec = campaign.FingerprintSpec{}
					out := outcome{sim: fingerprintDuration.Seconds(), digest: digest(res)}
					switch {
					case res.FalsePositives > 0:
						out.bad = fmt.Errorf("%d hostile verdicts before key-on", res.FalsePositives)
					case !res.Detected:
						out.bad = fmt.Errorf("no detection after key-on")
					}
					tr.count("detect.hostile_windows", float64(res.HostileWindows))
					return out
				}, nil
			},
		})
	}
	return cells
}

// ---- cluster_defended ------------------------------------------------

const (
	clusterCellCount = 24
	clusterRequests  = 5000
	clusterRate      = 250.0
	clusterSpeakers  = 3
)

// clusterCells are defended single-site cells differing only in seed: a
// 6-container line with 4+2 coding, three point-blank speakers keyed on
// one after another past the m=2 cliff, and a hydrophone ring whose
// fixes steer a 90%-GET open-loop workload.
func clusterCells(seed int64) []cell {
	cells := make([]cell, clusterCellCount)
	for i := range cells {
		cs := parallel.SeedFor(seed, i)
		cells[i] = cell{
			name: fmt.Sprintf("seed%d", i),
			run:  func(tr *tracer) (func() outcome, error) { return clusterCall(cs, tr) },
		}
	}
	return cells
}

func clusterCall(seed int64, tr *tracer) (func() outcome, error) {
	targets := make([]int, clusterSpeakers)
	for i := range targets {
		targets[i] = i
	}
	lay := cluster.LineLayout(6, 2*units.Meter).WithSpeakersAt(sig.NewTone(650*units.Hz), targets...)
	var c *cluster.Cluster
	var err error
	tr.span("cluster.setup", func() {
		c, err = cluster.New(cluster.Config{
			Layout:       lay,
			DataShards:   4,
			ParityShards: 2,
			Objects:      24,
			ObjectSize:   16 << 10,
			Seed:         cluster.Ptr(seed),
			Workers:      1,
		})
		if err == nil {
			err = c.Preload()
		}
	})
	if err != nil {
		return nil, err
	}
	// Speaker i keys on at window·(0.25 + 0.1·i) and stays on.
	window := time.Duration(clusterRequests / clusterRate * float64(time.Second))
	steps := make([]cluster.ScheduleStep, clusterSpeakers)
	for i := range steps {
		on := make([]bool, clusterSpeakers)
		for j := 0; j <= i; j++ {
			on[j] = true
		}
		steps[i] = cluster.ScheduleStep{At: time.Duration(float64(window) * (0.25 + 0.1*float64(i))), Active: on}
	}
	c.SetSchedule(steps)
	var dets []sonar.Detection
	tr.span("sonar.detect", func() {
		dets = sonar.DetectSchedule(lay, sonar.FacilityArray(lay, 6, 3*units.Meter), steps, parallel.SeedFor(seed, 3000))
	})
	var fixes []cluster.SourceFix
	for _, d := range dets {
		if d.OK {
			fixes = append(fixes, cluster.SourceFix{
				At: d.FixAt, Pos: d.Est.Pos, Err: d.Est.ErrRadius, Tone: lay.Speakers[d.Speaker].Tone,
			})
		}
	}
	tr.span("cluster.defense", func() { err = c.SetDefense(cluster.DefenseSpec{Fixes: fixes}) })
	if err != nil {
		return nil, err
	}
	// A plan arms when some fix predicts a container inside the blast
	// radius; it then re-places (or fails to re-place) that container's
	// shards. A fix whose depth error keeps every container outside the
	// radius leaves the plan unarmed, an outcome the digest pins.
	planned, skipped := c.DefenseEvacsPlanned()
	armed := planned+skipped > 0
	var res cluster.ServeResult
	tr.serve("cluster.serve", func() {
		res, err = c.Serve(cluster.TrafficSpec{
			Requests:     clusterRequests,
			Rate:         clusterRate,
			ReadFraction: cluster.Ptr(0.9),
			Seed:         cluster.Ptr(parallel.SeedFor(seed, 1000)),
		})
	})
	if err != nil {
		return nil, err
	}
	return func() outcome {
		// Simulated time is the open-loop arrival window. Span runs to the
		// last completion: under the attack that is a retry tail ~30× the
		// window whose length swings ±10% with the seed, which would make
		// sim_s_per_s vary with the seed rather than with host speed.
		out := outcome{sim: clusterRequests / clusterRate, digest: digest(struct {
			Dets []sonar.Detection
			Res  cluster.ServeResult
		}{dets, res})}
		switch {
		case res.CorruptReads != 0:
			out.bad = fmt.Errorf("%d corrupt reads", res.CorruptReads)
		case armed && res.SteeredGets == 0:
			out.bad = fmt.Errorf("defense armed (%d evacs planned) but no GET was steered", planned)
		case !armed && res.SteeredGets+res.EvacWrites != 0:
			out.bad = fmt.Errorf("defense never armed yet %d GETs steered, %d evac writes", res.SteeredGets, res.EvacWrites)
		}
		if armed {
			tr.count("cluster.armed_calls", 1)
		}
		ops := res.ShardReads + res.ShardWrites + res.RepairWrites + res.EvacWrites
		tr.count("cluster.shard_ops", float64(ops))
		tr.count("cluster.shard_errors", float64(res.ShardReadErrors+res.ShardWriteErrors))
		tr.count("cluster.degraded_reads", float64(res.DegradedReads))
		tr.count("cluster.repair_writes", float64(res.RepairWrites))
		tr.count("cluster.steered_gets", float64(res.SteeredGets))
		tr.count("cluster.replica_reads", float64(res.ReplicaReads))
		tr.count("cluster.evac_writes", float64(res.EvacWrites))
		tr.count("cluster.requests", float64(res.Requests))
		return out
	}, nil
}

// ---- fleet_geo -------------------------------------------------------

const (
	fleetCellCount   = 12
	fleetSites       = 4
	fleetPerSite     = 8
	fleetBlast       = 5
	fleetRequests    = 800
	fleetRate        = 300.0
	fleetAttackStart = 500 * time.Millisecond
	fleetAttackStop  = 2 * time.Second
)

// fleetCells are geo-fleet comparisons differing only in seed: 4 sites ×
// 8 containers with 4+4 coding, a 5-container blast at site 0 with a
// concurrent link flap and brownout, 50% PUTs, served under attack-aware
// and naive placement in turn.
func fleetCells(seed int64) []cell {
	cells := make([]cell, fleetCellCount)
	for i := range cells {
		cs := parallel.SeedFor(seed, i)
		cells[i] = cell{
			name: fmt.Sprintf("seed%d", i),
			run:  func(tr *tracer) (func() outcome, error) { return fleetCall(cs, tr) },
		}
	}
	return cells
}

func fleetCall(seed int64, tr *tracer) (func() outcome, error) {
	var results [2]fleet.Result
	for p, placement := range []fleet.Placement{fleet.PlacementAttackAware, fleet.PlacementNaive} {
		res, err := fleetServe(placement, seed, tr)
		if err != nil {
			return nil, err
		}
		results[p] = res
	}
	return func() outcome {
		out := outcome{digest: digest(results)}
		for _, r := range results {
			out.sim += r.Span.Seconds()
			switch {
			case out.bad != nil:
			case r.CorruptReads != 0:
				out.bad = fmt.Errorf("%d corrupt reads", r.CorruptReads)
			case r.CrossSiteOps == 0:
				out.bad = fmt.Errorf("no cross-site shard ops")
			}
			tr.count("fleet.shard_ops", float64(r.ShardReads+r.ShardWrites))
			tr.count("fleet.cross_site_ops", float64(r.CrossSiteOps))
			tr.count("fleet.failover_waves", float64(r.FailoverWaves))
			tr.count("fleet.hedged", float64(r.HedgedRequests))
			tr.count("fleet.wan_drops", float64(r.WANDrops))
			tr.count("fleet.breaker_opens", float64(r.BreakerOpens))
			tr.count("fleet.shed", float64(r.ShedRequests))
			tr.count("fleet.requests", float64(r.Requests))
		}
		return out
	}, nil
}

func fleetServe(placement fleet.Placement, seed int64, tr *tracer) (fleet.Result, error) {
	tone := sig.NewTone(650 * units.Hz)
	blast := make([]int, fleetBlast)
	on := make([]bool, fleetBlast)
	for i := range blast {
		blast[i], on[i] = i, true
	}
	sites := make([]fleet.SiteSpec, fleetSites)
	for i := range sites {
		lay := cluster.LineLayout(fleetPerSite, 2*units.Meter)
		if i == 0 {
			lay = lay.WithSpeakersAt(tone, blast...)
		}
		sites[i] = fleet.SiteSpec{Name: fmt.Sprintf("site-%d", i), Layout: lay}
	}
	window := fleetAttackStop - fleetAttackStart
	var f *fleet.Fleet
	var err error
	tr.span("fleet.setup", func() {
		f, err = fleet.New(fleet.Config{
			Sites:        sites,
			DataShards:   4,
			ParityShards: 4,
			Objects:      48,
			ObjectSize:   8 << 10,
			Placement:    placement,
			WAN: fleet.WANConfig{Faults: []fleet.Fault{
				{Kind: fleet.LinkFlap, A: 0, B: 1, Start: fleetAttackStart, Duration: window},
				{Kind: fleet.Brownout, A: 2, B: 3, Start: fleetAttackStart, Duration: window, Factor: 4},
			}},
			Resilience: fleet.Resilience{Deadline: 2 * time.Second},
			Seed:       cluster.Ptr(seed),
			Workers:    1,
		})
		if err == nil {
			err = f.Preload()
		}
		if err == nil {
			err = f.SetAttack(0, []cluster.ScheduleStep{
				{At: fleetAttackStart, Active: on},
				{At: fleetAttackStop, Active: nil},
			})
		}
	})
	if err != nil {
		return fleet.Result{}, err
	}
	var res fleet.Result
	tr.serve("fleet.serve", func() {
		res, err = f.Serve(fleet.TrafficSpec{
			Requests:     fleetRequests,
			Rate:         fleetRate,
			ReadFraction: cluster.Ptr(0.5),
			Seed:         cluster.Ptr(parallel.SeedFor(seed, 100)),
		})
	})
	return res, err
}
