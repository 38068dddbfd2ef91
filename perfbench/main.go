// Command perfbench is the repository's benchmark. It drives one of
// four workloads through the public entry points of each layer — the
// simulator (scenario, fleet) and the live wire plane (LiveProxy,
// LiveGuard) — checks every output against an oracle, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	perfbench -workload fleet-mixed -seed 1 -seconds 10 -trace 0
//	perfbench -workload all -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the same
// workload with spans around every call into a layer, times each
// layer's public functions on inputs the workload generates, and
// reports the per-layer metrics. -workload all runs every workload in
// a fresh subprocess and prints them side by side. See README.md.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"voiceguard/internal/parallel"
)

// Workload names.
const (
	workloadFleet  = "fleet-mixed"
	workloadQuiet  = "homes-quiet"
	workloadProxy  = "wire-proxy"
	workloadGuard  = "wire-guard"
	workloadAll    = "all"
	maxProcs       = 2 // the benchmark is sized for a 2-vCPU box
	defaultSeconds = 20
)

var workloadOrder = []string{workloadFleet, workloadQuiet, workloadProxy, workloadGuard}

// End-to-end metrics, reported by every workload with -trace 0. On the
// simulator an operation is one home-day; on the wire plane it is one
// burst (wire-proxy) or one command cycle (wire-guard).
const (
	mSetup    = "setup_s"
	mCPUPerOp = "cpu_us_per_op"
	mRSS      = "rss_peak_mb"
	mAccuracy = "accuracy_pct"
)

// Per-layer metrics, reported by every workload with -trace 1. A layer
// that is not on a workload's path reads 0 there.
const (
	// An operation's wall-clock figures, reported without a bound. In
	// the host's slow phases they doubled between two sets of runs,
	// while CPU per operation, which the gate bounds, moved by a
	// quarter at most.
	mThroughput = "op.throughput_per_s"
	mLatP50     = "op.latency_p50_ms"
	mLatP90     = "op.latency_p90_ms"
	mLatP99     = "op.latency_p99_ms"

	mNewHome        = "scenario.new_home_ms"
	mDayBg          = "scenario.day_ms.bg"
	mDayQuiet       = "scenario.day_ms.quiet"
	mRound          = "fleet.round_ms"
	mBarrierIdle    = "fleet.barrier_idle_pct"
	mBgMs           = "trafficgen.bg_ms_per_day"
	mBgAllocMB      = "trafficgen.bg_alloc_mb_per_day"
	mBgPackets      = "trafficgen.bg_packets_per_day"
	mFeedNs         = "guard.feed_ns_per_packet"
	mRadioCold      = "radio.sample_ns.cold"
	mRadioWarm      = "radio.sample_ns.warm"
	mBLEMeasure     = "ble.measure_us"
	mDecisionQuery  = "decision.query_us"
	mSpikes         = "guard.spikes_per_home_day"
	mCommands       = "guard.commands_per_home_day"
	mQueries        = "decision.queries_per_home_day"
	mPushRequests   = "push.requests_per_home_day"
	mPushRetries    = "push.retries_per_home_day"
	mSetupP50       = "proxy.session_setup_ms.p50"
	mSetupP99       = "proxy.session_setup_ms.p99"
	mHoldEnterP50   = "live.hold_enter_us.p50"
	mHoldEnterP99   = "live.hold_enter_us.p99"
	mReleaseP50     = "proxy.release_us.p50"
	mReleaseP99     = "proxy.release_us.p99"
	mDropTeardown   = "proxy.drop_teardown_ms"
	mHoldHeap       = "proxy.hold_heap_per_byte"
	mHoldPeak       = "proxy.hold_queue_bytes_peak"
	mRuntimeGCCPU   = "runtime.gc_cpu_pct"
	mRuntimeAllocKB = "runtime.alloc_kb_per_op"
	mTraceOverhead  = "trace.overhead_pct"
	mLedger         = "ledger.residual_pct"
)

// metricUnits gives every metric's unit.
var metricUnits = map[string]string{
	mSetup: "s", mCPUPerOp: "us",
	mRSS: "MB", mAccuracy: "%",

	mLatP50: "ms", mLatP90: "ms", mLatP99: "ms", mThroughput: "1/s", mNewHome: "ms", mDayBg: "ms", mDayQuiet: "ms", mRound: "ms", mBarrierIdle: "%",
	mBgMs: "ms", mBgAllocMB: "MB", mBgPackets: "count", mFeedNs: "ns",
	mRadioCold: "ns", mRadioWarm: "ns", mBLEMeasure: "us", mDecisionQuery: "us",
	mSpikes: "count", mCommands: "count", mQueries: "count", mPushRequests: "count", mPushRetries: "count",
	mSetupP50: "ms", mSetupP99: "ms", mHoldEnterP50: "us", mHoldEnterP99: "us",
	mReleaseP50: "us", mReleaseP99: "us", mDropTeardown: "ms", mHoldHeap: "B/B", mHoldPeak: "B",
	mRuntimeGCCPU: "%", mRuntimeAllocKB: "KB", mTraceOverhead: "%", mLedger: "%",
}

var endToEnd = []string{mSetup, mCPUPerOp, mRSS, mAccuracy}

// perLayer lists the per-layer metrics in report order.
var perLayer = []string{
	mThroughput, mLatP50, mLatP90, mLatP99, mNewHome, mDayBg, mDayQuiet, mRound, mBarrierIdle, mBgMs, mBgAllocMB, mBgPackets,
	mFeedNs, mRadioCold, mRadioWarm, mBLEMeasure, mDecisionQuery,
	mSpikes, mCommands, mQueries, mPushRequests, mPushRetries,
	mSetupP50, mSetupP99, mHoldEnterP50, mHoldEnterP99, mReleaseP50, mReleaseP99,
	mDropTeardown, mHoldHeap, mHoldPeak,
	mRuntimeGCCPU, mRuntimeAllocKB, mTraceOverhead, mLedger,
}

// metricSet holds metric values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// outcome is what one workload run produced.
type outcome struct {
	attempted int
	failed    int
	problems  []string // every failed check, for the report on stderr
	e2e       metricSet
	layer     metricSet
}

func newOutcome() *outcome {
	return &outcome{e2e: metricSet{}, layer: metricSet{}}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // where the traced run writes its spans
	golden   goldenSet

	// maxBatches caps the simulator batches run (0: run until the
	// time is up); the self-tests use 1.
	maxBatches int
	// injectWrongVerdict flips one verdict in the workload's
	// DecisionFunc, so the self-test can prove the checks catch it.
	injectWrongVerdict bool
}

// metricJSON is one metric on the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

//go:embed golden.json
var embeddedGolden []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the process exit code: 0
// when every output check passed, 1 when a check failed or the
// workload could not run, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	goldenPath := fs.String("golden", "", "golden digest file (default: the one built in)")
	order := fs.String("order", "forward", "workload order for -workload all: forward or reverse")
	writeGolden := fs.String("write-golden", "", "recompute every simulator batch digest into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden != "" {
		if err := writeGoldenFile(*writeGolden); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		fs.Usage()
		return 2
	}
	if *workload == workloadAll {
		return runAll(*seed, *seconds, *traceMode, *order, *goldenPath, stdout, stderr)
	}
	if !slices.Contains(workloadOrder, *workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		fs.Usage()
		return 2
	}
	golden, err := loadGolden(*goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceMode == 1,
		golden:   golden,
	}
	if cfg.trace {
		cfg.traceOut = fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", cfg.workload, cfg.seed)
	}
	return runWorkload(cfg, stdout, stderr)
}

// runWorkload runs one workload in this process and prints its result
// line.
func runWorkload(cfg config, stdout, stderr io.Writer) int {
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	// One simulator worker. On a shared 2-vCPU host, two workers in
	// day-lockstep made every timing follow the steal on either vCPU:
	// fleet-mixed timings spread 0.14-0.16 (IQR/median) with two
	// workers and 0.02-0.05 with one, measured in alternating runs.
	// The second P is left to the collector and the runtime.
	parallel.SetWorkers(1)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case workloadFleet, workloadQuiet:
		out, err = runSim(cfg, rec)
	case workloadProxy:
		out, err = runProxy(cfg, rec)
	case workloadGuard:
		out, err = runGuard(cfg, rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rec.writeJSONL(cfg.traceOut); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", cfg.workload, p)
	}
	names, values := endToEnd, out.e2e
	if cfg.trace {
		names, values = perLayer, out.layer
	}
	res := resultJSON{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(names)),
	}
	for _, n := range names {
		res.Metrics[n] = metricJSON{Value: values[n], Unit: metricUnits[n]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh subprocess of this binary,
// so no workload inherits caches another one warmed, prints a table,
// and ends with one result line whose metrics are keyed
// <workload>/<metric>.
func runAll(seed int64, seconds float64, traceMode int, order, goldenPath string, stdout, stderr io.Writer) int {
	workloads := append([]string(nil), workloadOrder...)
	switch order {
	case "forward":
	case "reverse":
		slices.Reverse(workloads)
	default:
		fmt.Fprintf(stderr, "perfbench: -order must be forward or reverse, got %q\n", order)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	all := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceMode)}
		if goldenPath != "" {
			args = append(args, "-golden", goldenPath)
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		start := time.Now()
		runErr := cmd.Run()
		res, perr := lastResult(buf.Bytes())
		if perr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v (%v)\n", w, perr, runErr)
			all.Correct = false
			code = 1
			continue
		}
		if runErr != nil || !res.Correct {
			all.Correct = false
			code = 1
		}
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		fmt.Fprintf(stdout, "== %s (seed %d, %.1fs wall, correct %v, attempted %d, failed %d)\n",
			w, seed, time.Since(start).Seconds(), res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
			all.Metrics[w+"/"+n] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// lastResult parses the result line a workload subprocess printed.
func lastResult(out []byte) (resultJSON, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if last == "" {
		return resultJSON{}, errors.New("no result line")
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return resultJSON{}, fmt.Errorf("bad result line: %w", err)
	}
	return res, nil
}
