// Command perfbench is the repository benchmark. One process runs one
// workload by calling the public APIs of deepnote/internal/*, one call at
// a time in a closed loop, checks every output, and prints its metrics as
// the last line of standard output:
//
//	bash perfbench/run.sh --workload exfil_decode --seed 1 --seconds 24 --trace 0
//
// run.sh builds the benchmark from source into .bench_build (Go build
// cache included) and runs it from the repository root. BENCHMARK.json at
// the root names the workloads and metrics.
//
// # Workloads
//
// Each workload makes a cell list from the seed and covers it a whole
// number of times per run. Every call builds its cell fresh; every
// Workers fan-out is pinned to 1; serving traffic inside a call is the
// simulator's open loop at a fixed rate.
//
//   - exfil_decode: one covert-channel offense cell at 64 baud carrying
//     one frame (Modem.EncodeFrame → Link.Render → Receiver.Demodulate),
//     cycling {FSK, OOK} × 5 ambients × {5 m, 20 m}. Simulated time is
//     the waveform's airtime.
//   - fingerprint_monitor: one campaign.FingerprintSpec.Run — the §4.3
//     chain at 650 Hz, 10 s simulated, key-on at 5 s — cycling the 5
//     ambients.
//   - cluster_defended: a defended single-site cell (6 containers, 4+2,
//     3 point-blank speakers keyed on one after another, hydrophone ring
//     → DetectSchedule → SetDefense → Serve of 5000 requests at 250/s,
//     90% GETs), over 24 seeds. Simulated time is the 20 s arrival
//     window: ServeResult.Span ends with a seed-dependent retry tail.
//   - fleet_geo: the geo comparison (4 sites × 8 containers, 4+4, a
//     5-container blast at site 0 with a link flap and a brownout, 800
//     requests at 300/s, 50% PUTs) under attack-aware and then naive
//     placement, over 12 seeds. Simulated time is the sum of both spans.
//
// # End-to-end metrics (--trace 0)
//
// setup_s is the median over 20 fresh processes of the time from the top
// of main to the first timed call, including one untimed warm-up call, so
// lazy one-time costs show there. Process i warms up on cell i, so the
// median spans the cell mix; each process times itself, leaving process
// creation and the loader, which are not the program's, out. call_p50_ms and call_p90_ms are nearest-rank
// quantiles of host call latency over at least 100 calls; sim_s_per_s is
// simulated seconds per host second over the timed calls;
// alloc_mb_per_call is the runtime.MemStats.TotalAlloc delta per call;
// ok_frac is the share of calls whose invariants hold, whose output digest
// repeats within the run, and — for seeds with committed digests in
// golden.json — whose digest matches the golden. A simulated outcome that
// shifts therefore counts as a failed call.
//
// Other seeds print the per-cell digests ("digest <workload> <cell>
// <hex>" lines) so two commits can be compared with cmp. Record the
// digests of a seed with
//
//	go run . --update-golden --seed N    (from this directory)
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates untraced and traced cycles. Traced calls record
// spans (name, start, end, parent, call) around each layer call from this
// package's files, and only count and self time for per-I/O calls
// (Disk.WriteAt, Detector.Observe, and per window Synth.Window,
// Fingerprinter.Feed, Fused.Verdict). When the run ends the spans are
// written as JSON lines beside the binary (spans-<workload>-<seed>.jsonl).
// The untraced cycles are the reference: every traced call's digest must
// equal the untraced digest of the same cell, and trace.overhead_frac
// compares the two call_p50_ms.
// fingerprint_monitor's traced calls rebuild FingerprintSpec.Run from its
// public calls, so that digest check is also the proof that the rebuilt
// loop matches the campaign.
//
// .ms metrics are mean host self time per traced call; counts are exact
// per-call means. exfil.acquire.ms times a probe Demodulate(wave, 0)
// (acquisition and preamble training only) that is left out of the call
// time; exfil.decode.ms is the full Demodulate minus that probe, so it is
// the small difference of two large times and reads within about a
// millisecond. layer.other.ms is traced call time no span covers. On the
// serving workloads the traced Serve calls are CPU-profiled and their
// samples bucketed by the deepnote/internal package nearest the stack
// leaf: prof.<pkg>.frac with prof.samples. These are sampled, never gated.
// Layers a workload never enters read 0.
//
// Layer → end-to-end map, and what a change should move:
//
//   - exfil.encode/render/acquire/decode.ms, exfil.frames_ok_frac,
//     exfil.rs_corrections → exfil_decode. An acquisition or decode speedup
//     moves exfil_decode only; the other workloads stay flat. A dsp change
//     shows in exfil.acquire.ms and detect.feed.ms alike.
//   - blockdev.write.ms/.count/.failed, detect.observe/synth/feed/verdict.ms,
//     detect.feed.count, detect.hostile_windows → fingerprint_monitor.
//     Observe and Feed speedups move fingerprint_monitor alone;
//     blockdev.write.ms also predicts cluster_defended, which shares
//     blockdev and hdd.
//   - cluster.setup/serve/defense.ms, sonar.detect.ms and the
//     cluster.* counts → cluster_defended.
//   - fleet.setup/serve.ms and the fleet.* counts → fleet_geo. A shared
//     serving engine must leave cluster.serve.ms, fleet.serve.ms and every
//     count unchanged.
//
// # Sensitivity self-test
//
// go test (from this directory, about a minute and a half) adds a fixed 25 ms spin
// to every Receiver.Demodulate call and checks that exfil_decode's
// call_p50_ms rises by about the spin, that the ledger charges it to
// exfil.acquire.ms, and that exfil.encode/render/decode.ms and
// layer.other.ms stay flat. Runs with and without the spin alternate, so a
// drift of host speed cancels. The other workloads never call
// Receiver.Demodulate, so by construction they cannot see the spin, and
// the test does not run them.
package main
