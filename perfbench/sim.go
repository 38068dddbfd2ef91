package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"voiceguard/internal/fleet"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/metrics"
	"voiceguard/internal/parallel"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
	"voiceguard/internal/scenario"
	"voiceguard/internal/stats"
)

// The simulator workloads draw their batches from a fixed pool: batch
// b of a workload is a pure function of (workload, b), and a run's
// seed picks the order in which it takes batches from the pool. Every
// pool batch has a golden digest in golden.json, so every batch a run
// executes is checked exactly, whatever the seed.
const (
	simPoolSize = 768      // four times the batches a 20 s homes-quiet run takes on a 2-vCPU VM
	simPoolSeed = 20230306 // the Monday the paper's 7-day protocol starts on
	simDays     = 7

	fleetHomes  = 12 // lcm of the fleet's 1-in-4 fault and 1-in-6 background cycles
	fleetShards = 4
	quietHomes  = 12 // house/apartment/office × spot A/B × Echo/GHM

	minBatches        = 3 // set-up is timed once per batch; report a median of at least 3
	fleetVerifySample = 1
)

// Counters of metrics.Default whose deltas give per-home-day work
// counts.
const (
	ctrGuardSpikes     = "guard_spikes_total"
	ctrGuardCommands   = "guard_commands_recognized_total"
	ctrDecisionQueries = "decision_rssi_queries_total"
	ctrPushRequests    = "push_requests_total"
	ctrPushRetries     = "push_retries_total"
)

var workCounters = [...]*metrics.Counter{
	metrics.Default.Counter(ctrGuardSpikes),
	metrics.Default.Counter(ctrGuardCommands),
	metrics.Default.Counter(ctrDecisionQueries),
	metrics.Default.Counter(ctrPushRequests),
	metrics.Default.Counter(ctrPushRetries),
}

var workMetrics = [len(workCounters)]string{mSpikes, mCommands, mQueries, mPushRequests, mPushRetries}

const workQueries = 2 // the decision-query counter's index

type workCounts [len(workCounters)]int64

func readWork() workCounts {
	var w workCounts
	for i, c := range workCounters {
		w[i] = c.Value()
	}
	return w
}

// simBatch is one pool batch: the homes' configurations and, for the
// fleet, the shared plans and fleet seed FleetVerify needs.
type simBatch struct {
	index int
	seed  int64
	cfgs  []scenario.Config
	plans scenario.FleetPlans
}

func makeBatch(workload string, b int) simBatch {
	seed := rng.New(simPoolSeed).Split(workload).SplitN("batch", b).Seed()
	batch := simBatch{index: b, seed: seed}
	if workload == workloadFleet {
		batch.plans = scenario.NewFleetPlans()
		for i := 0; i < fleetHomes; i++ {
			batch.cfgs = append(batch.cfgs, scenario.FleetHomeConfig(seed, i, simDays, batch.plans))
		}
		return batch
	}
	for i := 0; i < quietHomes; i++ {
		batch.cfgs = append(batch.cfgs, quietHomeConfig(seed, i))
	}
	return batch
}

// quietHomeConfig builds home i of a homes-quiet batch: its own fresh
// floorplan and its own radio seed (so no cache is shared with any
// other home), no background traffic and a clean push channel.
func quietHomeConfig(seed int64, i int) scenario.Config {
	cfg := scenario.Config{
		Spot:    "A",
		Speaker: scenario.Echo,
		Days:    simDays,
		Seed:    rng.New(seed).SplitN("home", i).Seed(),
	}
	switch i % 3 {
	case 0:
		cfg.Plan = floorplan.House()
		cfg.Devices = []scenario.DeviceSpec{{ID: "pixel5", Hardware: radio.Pixel5}, {ID: "pixel4a", Hardware: radio.Pixel4a}}
	case 1:
		cfg.Plan = floorplan.Apartment()
		cfg.Devices = []scenario.DeviceSpec{{ID: "pixel5", Hardware: radio.Pixel5}}
	default:
		cfg.Plan = floorplan.Office()
		cfg.Devices = []scenario.DeviceSpec{{ID: "pixel4a", Hardware: radio.Pixel4a}, {ID: "watch4", Hardware: radio.GalaxyWatch4}}
	}
	if (i/3)%2 == 1 {
		cfg.Spot = "B"
	}
	if i/6 == 1 {
		cfg.Speaker = scenario.GHM
	}
	return cfg
}

// timedHome wraps a scenario.Home as a fleet.Home, timing every day.
// The fleet manager runs a tenant on one worker at a time and rounds
// are separated by a barrier, so days needs no lock.
type timedHome struct {
	h     *scenario.Home
	bg    bool
	days  []time.Duration
	rec   *recorder
	round *uint64 // the running round's span ID, set before each round
}

func (t *timedHome) Days() int { return t.h.Days() }

func (t *timedHome) RunDay(day int) {
	start := time.Now()
	t.h.RunDay(day)
	end := time.Now()
	t.days[day] = end.Sub(start)
	name := "RunDay.quiet"
	if t.bg {
		name = "RunDay.bg"
	}
	t.rec.add(*t.round, "scenario", name, start, end)
}

// batchResult is what running one batch measured.
type batchResult struct {
	setupCPU time.Duration // process CPU while the homes are set up
	loop     time.Duration // the day loop: every home, every day
	homes    []*timedHome
	rounds   []time.Duration
	rt       runtimeDelta
	work     workCounts
	outcomes []*scenario.Outcome
}

// runBatch sets the batch's homes up (timed as set-up) and runs their
// days (timed as the day loop). The fleet workload registers the
// homes with a sharded fleet.Manager and runs day-lockstep rounds; the
// quiet workload runs each home's days back to back.
func runBatch(workload string, batch simBatch, rec *recorder) (*batchResult, error) {
	res := &batchResult{}
	root := rec.reserve()
	batchStart := time.Now()

	homes := make([]*scenario.Home, len(batch.cfgs))
	setupCPU0 := processCPU()
	build := func(i int) error {
		start := time.Now()
		h, err := scenario.NewHome(batch.cfgs[i])
		rec.add(root, "scenario", "NewHome", start, time.Now())
		homes[i] = h
		return err
	}
	if workload == workloadFleet {
		if _, err := parallel.MapErr(len(homes), func(i int) (struct{}, error) { return struct{}{}, build(i) }); err != nil {
			return nil, err
		}
	} else {
		for i := range homes {
			if err := build(i); err != nil {
				return nil, err
			}
		}
	}
	res.setupCPU = processCPU() - setupCPU0

	var round uint64
	for i, h := range homes {
		res.homes = append(res.homes, &timedHome{
			h: h, bg: batch.cfgs[i].BackgroundTraffic, days: make([]time.Duration, h.Days()), rec: rec, round: &round,
		})
	}

	work0, rt0 := readWork(), readRuntime()
	loopStart := time.Now()
	if workload == workloadFleet {
		m := fleet.New(fleetShards)
		for _, th := range res.homes {
			if err := m.Register(fleet.NewTenant(th.h.ID(), th)); err != nil {
				return nil, err
			}
		}
		for {
			round = rec.reserve()
			start := time.Now()
			if m.RunRound() == 0 {
				break
			}
			end := time.Now()
			rec.record(round, root, "fleet", "RunRound", start, end)
			res.rounds = append(res.rounds, end.Sub(start))
		}
	} else {
		for _, th := range res.homes {
			for d := 0; d < th.Days(); d++ {
				th.RunDay(d)
			}
		}
	}
	res.loop = time.Since(loopStart)
	res.rt.add(rt0, readRuntime())
	work1 := readWork()
	for i := range res.work {
		res.work[i] = work1[i] - work0[i]
	}
	for _, h := range homes {
		res.outcomes = append(res.outcomes, h.Outcome())
	}
	rec.record(root, 0, "perfbench", "batch", batchStart, time.Now())
	return res, nil
}

// homeDigest hashes everything a home's outcome decides: the confusion
// counts, every command record's flags and times, and the stairway
// trace tallies.
func homeDigest(o *scenario.Outcome) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	c := o.Confusion
	for _, v := range []int{c.TP, c.FP, c.TN, c.FN, len(o.Records), o.TraceEvents, o.TraceMisclassified} {
		put(int64(v))
	}
	for _, r := range o.Records {
		put(int64(r.Day))
		put(r.At.UnixNano())
		put(flag(r.Malicious)<<3 | flag(r.Blocked)<<2 | flag(r.Recognized)<<1 | flag(r.Degraded))
		put(int64(r.OwnerLoc))
		put(int64(r.Verification))
		put(int64(r.Perceived))
		h.Write([]byte(r.Command))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenSet maps a workload to its pool batches' per-home digests.
type goldenSet map[string][][]string

func loadGolden(path string) (goldenSet, error) {
	data := embeddedGolden
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
	}
	var g goldenSet
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// writeGoldenFile runs every pool batch of both simulator workloads
// and writes their digests. Regenerating it is a deliberate baseline
// refresh: it is only right when a change is meant to alter what the
// simulator computes.
func writeGoldenFile(path string) error {
	g := goldenSet{}
	for _, w := range []string{workloadFleet, workloadQuiet} {
		for b := 0; b < simPoolSize; b++ {
			res, err := runBatch(w, makeBatch(w, b), nil)
			if err != nil {
				return fmt.Errorf("%s batch %d: %w", w, b, err)
			}
			var digests []string
			for _, o := range res.outcomes {
				digests = append(digests, homeDigest(o))
			}
			g[w] = append(g[w], digests)
		}
	}
	data, err := json.Marshal(g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkBatch compares every home's digest with the golden one and,
// for the fleet, re-runs a sample of homes through plain scenario.Run
// (scenario.FleetVerify). It returns the home-days that failed.
func checkBatch(workload string, batch simBatch, res *batchResult, golden goldenSet, out *outcome) int {
	failed := 0
	want := golden[workload]
	if batch.index >= len(want) || len(want[batch.index]) != len(res.outcomes) {
		out.fail("%s batch %d: no golden digests", workload, batch.index)
		return len(res.outcomes) * simDays
	}
	for i, o := range res.outcomes {
		if got := homeDigest(o); got != want[batch.index][i] {
			out.fail("%s batch %d home %d: digest %s, golden %s", workload, batch.index, i, got, want[batch.index][i])
			failed += simDays
		}
	}
	if workload == workloadFleet {
		fo := &scenario.FleetOutcome{
			Config: scenario.FleetConfig{Homes: fleetHomes, Days: simDays, Shards: fleetShards, Plans: batch.plans, Seed: batch.seed},
			Homes:  res.outcomes,
		}
		if err := scenario.FleetVerify(fo, fleetVerifySample); err != nil {
			out.fail("%s batch %d: %v", workload, batch.index, err)
		}
	}
	return failed
}

// runSim runs a simulator workload: batches from the pool in the
// seed's order until the time is up, every batch checked outside the
// timed windows. With a recorder, every other batch is traced, so the
// traced and untraced day loops of one run give the tracing overhead.
func runSim(cfg config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	order := rng.New(cfg.seed).Split("perfbench/order/" + cfg.workload).Perm(simPoolSize)
	var (
		setups, dayMs        []float64
		batchRate, batchCPU  []float64 // per batch: home-days per second, CPU µs per home-day
		rt                   runtimeDelta
		work                 workCounts
		conf                 stats.Confusion
		homeDays, bgHomeDays int
		roundSum, runDaySum  time.Duration
		tracedNs, untracedNs [2]float64 // day-loop ns, home-days
		first                simBatch
	)
	start := time.Now()
	for n, b := range order {
		if cfg.maxBatches > 0 && n >= cfg.maxBatches {
			break
		}
		if cfg.maxBatches == 0 && n >= minBatches && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		batch := makeBatch(cfg.workload, b)
		if n == 0 {
			first = batch
		}
		var brec *recorder
		if n%2 == 0 {
			brec = rec
		}
		res, err := runBatch(cfg.workload, batch, brec)
		if err != nil {
			return nil, err
		}
		batchDays := 0
		for _, th := range res.homes {
			for _, d := range th.days {
				dayMs = append(dayMs, float64(d)/1e6)
				runDaySum += d
			}
			batchDays += len(th.days)
			if th.bg {
				bgHomeDays += len(th.days)
			}
		}
		for _, r := range res.rounds {
			roundSum += r
		}
		setups = append(setups, res.setupCPU.Seconds())
		batchRate = append(batchRate, ratio(float64(batchDays), res.loop.Seconds()))
		batchCPU = append(batchCPU, ratio(float64(res.rt.cpu.Microseconds()), float64(batchDays)))
		rt.merge(res.rt)
		for i := range work {
			work[i] += res.work[i]
		}
		for _, o := range res.outcomes {
			conf.Merge(o.Confusion)
		}
		homeDays += batchDays
		acc := &untracedNs
		if brec != nil {
			acc = &tracedNs
		}
		acc[0] += float64(res.loop)
		acc[1] += float64(batchDays)

		out.attempted += batchDays
		out.failed += checkBatch(cfg.workload, batch, res, cfg.golden, out)
	}

	out.e2e.set(mSetup, median(setups))
	// CPU per home-day and home-days per second are medians over
	// batches, so a slow phase of the host that lasts a few batches
	// does not move them.
	out.e2e.set(mCPUPerOp, median(batchCPU))
	out.e2e.set(mRSS, peakRSSMB())
	out.e2e.set(mAccuracy, 100*conf.Accuracy())

	if rec == nil {
		return out, nil
	}
	l := out.layer
	l.set(mThroughput, median(batchRate))
	l.set(mLatP50, quantile(dayMs, 0.50))
	l.set(mLatP90, quantile(dayMs, 0.90))
	l.set(mLatP99, quantile(dayMs, 0.99))
	l.set(mNewHome, median(rec.durations("NewHome"))/1e6)
	l.set(mDayBg, median(rec.durations("RunDay.bg"))/1e6)
	l.set(mDayQuiet, median(rec.durations("RunDay.quiet"))/1e6)
	l.set(mRound, median(rec.durations("RunRound"))/1e6)
	if roundSum > 0 {
		l.set(mBarrierIdle, 100*(1-float64(runDaySum)/(float64(roundSum)*float64(parallel.Workers()))))
	}
	for i, name := range workMetrics {
		l.set(name, ratio(float64(work[i]), float64(homeDays)))
	}
	rt.layerMetrics(homeDays, l)
	if tracedNs[1] > 0 && untracedNs[1] > 0 {
		l.set(mTraceOverhead, 100*(tracedNs[0]/tracedNs[1]/(untracedNs[0]/untracedNs[1])-1))
	}
	costs, err := simLayerCosts(cfg, first, rec, l)
	if err != nil {
		return nil, err
	}
	// The ledger: the time spent inside RunDay against the units each
	// timed layer did times that layer's unit cost. What no timed
	// layer explains (mobility, stair traces, the event loop) is the
	// residual.
	explained := float64(bgHomeDays)*costs.bgNsPerDay +
		(float64(homeDays)*costs.quietPacketsPerDay+float64(bgHomeDays)*costs.bgPacketsPerDay)*costs.feedNsPerPacket +
		float64(work[workQueries])*costs.queryNs
	total := float64(runDaySum)
	l.set(mLedger, 100*ratio(math.Abs(total-explained), total))
	return out, nil
}
