package main

import (
	"fmt"
	"sort"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/decision"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/guard"
	"voiceguard/internal/pcap"
	"voiceguard/internal/push"
	"voiceguard/internal/radio"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/scenario"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trafficgen"
)

// Repetitions of the per-layer timings the traced simulator run makes
// after its workload; medians are reported.
const (
	layerReps     = 5
	radioWarmReps = 20
	bleReps       = 4  // passes over every plan location
	queryReps     = 40 // RSSI queries
	dayCommands   = 22 // the scenario's default 13 legitimate + 9 attack commands a day
)

// layerCosts are the unit costs the ledger multiplies work counts by.
type layerCosts struct {
	bgNsPerDay         float64
	bgPacketsPerDay    float64
	quietPacketsPerDay float64
	feedNsPerPacket    float64
	queryNs            float64
}

// simLayerCosts times each simulator layer's public functions on
// inputs generated from the workload's seed and its first batch's
// first home, records a span around every call, and sets the layer
// metrics.
func simLayerCosts(cfg config, batch simBatch, rec *recorder, l metricSet) (layerCosts, error) {
	var c layerCosts
	src := rng.New(cfg.seed).Split("perfbench/layers/" + cfg.workload)
	home := batch.cfgs[0]
	dayStart := scenario.DefaultStart.Add(6 * time.Hour)
	root := rec.reserve()
	rootStart := time.Now()

	// trafficgen: one day of background chatter, the unit a
	// background home pays per simulated day.
	var bgNs, bgAlloc, bgPackets []float64
	var bgDay []pcap.Packet
	for k := 0; k < layerReps; k++ {
		r0 := readRuntime()
		start := time.Now()
		packets, err := trafficgen.Background(src.SplitN("bg", k), dayStart, 16*time.Hour)
		end := time.Now()
		r1 := readRuntime()
		if err != nil {
			return c, fmt.Errorf("trafficgen.Background: %w", err)
		}
		rec.add(root, "trafficgen", "Background", start, end)
		bgNs = append(bgNs, float64(end.Sub(start)))
		bgAlloc = append(bgAlloc, r1.allocBytes-r0.allocBytes)
		bgPackets = append(bgPackets, float64(len(packets)))
		bgDay = packets
	}
	c.bgNsPerDay, c.bgPacketsPerDay = median(bgNs), median(bgPackets)
	l.set(mBgMs, c.bgNsPerDay/1e6)
	l.set(mBgAllocMB, median(bgAlloc)/(1<<20))
	l.set(mBgPackets, c.bgPacketsPerDay)

	// guard: a generated speaker day (boot, heartbeats, the day's
	// invocations; plus background chatter on the fleet workload)
	// through a guard.Router on a simulated clock.
	var feedNs []float64
	for k := 0; k < layerReps; k++ {
		day, quiet, err := generatedDay(src.SplitN("day", k), scenario.DefaultStart)
		if err != nil {
			return c, err
		}
		c.quietPacketsPerDay = float64(quiet)
		if cfg.workload == workloadFleet {
			day = mergeByTime(day, bgDay)
		}
		clock := simtime.NewSim(scenario.DefaultStart)
		g := guard.New(clock, recognize.NewEcho(trafficgen.EchoIP), &decision.StaticMethod{MethodName: "static", Allow: true}, "echo")
		router := guard.NewRouter()
		router.Add(trafficgen.EchoIP, g)
		start := time.Now()
		for _, p := range day {
			clock.AdvanceTo(p.Time)
			router.Feed(p)
		}
		end := time.Now()
		rec.add(root, "guard", "Router.Feed", start, end)
		feedNs = append(feedNs, float64(end.Sub(start))/float64(len(day)))
	}
	c.feedNsPerPacket = median(feedNs)
	l.set(mFeedNs, c.feedNsPerPacket)

	// radio: SampleBatch over every plan location from the speaker
	// spot, on a fresh model (cold shadow-field cache) and repeated on
	// a model already sampled (warm).
	plan := home.Plan
	spot, ok := plan.Spot(home.Spot)
	if !ok {
		return c, fmt.Errorf("plan %s has no spot %q", plan.Name, home.Spot)
	}
	rxs := make([]floorplan.Position, 0, len(plan.Locations))
	for _, loc := range plan.Locations {
		rxs = append(rxs, loc.Pos)
	}
	out := make([]float64, len(rxs))
	var cold, warm []float64
	var model *radio.Model
	for k := 0; k < layerReps; k++ {
		model = radio.NewModel(plan, radio.DefaultParams(), src.SplitN("radio", k).Seed())
		draws := src.SplitN("radio-draws", k)
		start := time.Now()
		model.SampleBatch(spot.Pos, rxs, radio.Pixel5, draws, out)
		end := time.Now()
		rec.add(root, "radio", "SampleBatch.cold", start, end)
		cold = append(cold, float64(end.Sub(start))/float64(len(rxs)))
	}
	draws := src.Split("radio-warm")
	for k := 0; k < radioWarmReps; k++ {
		start := time.Now()
		model.SampleBatch(spot.Pos, rxs, radio.Pixel5, draws, out)
		end := time.Now()
		rec.add(root, "radio", "SampleBatch.warm", start, end)
		warm = append(warm, float64(end.Sub(start))/float64(len(rxs)))
	}
	l.set(mRadioCold, median(cold))
	l.set(mRadioWarm, median(warm))

	// ble: Scanner.Measure at every plan location.
	adv := ble.NewAdvertiser(spot.Pos)
	scanner := ble.NewScanner(model, radio.Pixel5, src.Split("scan"))
	var measure []float64
	for k := 0; k < bleReps; k++ {
		start := time.Now()
		for _, at := range rxs {
			scanner.Measure(adv, at)
		}
		end := time.Now()
		rec.add(root, "ble", "Scanner.Measure", start, end)
		measure = append(measure, float64(end.Sub(start))/float64(len(rxs)))
	}
	l.set(mBLEMeasure, median(measure)/1e3)

	// decision: RSSIMethod.Check over a push.Broker on a simulated
	// clock, the device standing at successive plan locations; each
	// query runs until its verdict is delivered.
	clock := simtime.NewSim(scenario.DefaultStart)
	broker := push.NewBroker(clock, src.Split("push"))
	pos := rxs[0]
	if err := broker.Register(&push.Device{ID: "pixel5", Scanner: scanner, Position: func() floorplan.Position { return pos }}); err != nil {
		return c, err
	}
	method := &decision.RSSIMethod{
		Clock:   clock,
		Broker:  broker,
		Adv:     adv,
		Devices: []decision.DeviceConfig{{ID: "pixel5", Threshold: -70}},
	}
	var query []float64
	for q := 0; q < queryReps; q++ {
		pos = rxs[q%len(rxs)]
		done := false
		start := time.Now()
		method.Check(decision.Request{At: clock.Now()}, func(decision.Result) { done = true })
		for !done && clock.Step() {
		}
		end := time.Now()
		if !done {
			return c, fmt.Errorf("decision query %d never completed", q)
		}
		rec.add(root, "decision", "RSSIMethod.Check", start, end)
		query = append(query, float64(end.Sub(start)))
		clock.Advance(time.Minute)
	}
	c.queryNs = median(query)
	l.set(mDecisionQuery, c.queryNs/1e3)
	rec.record(root, 0, "perfbench", "layer-timings", rootStart, time.Now())
	return c, nil
}

// generatedDay synthesises one speaker day the way the scenario does:
// the Echo's boot exchange, a day of heartbeats and the day's command
// invocations spread over 16 waking hours. It returns the packets in
// time order and their count.
func generatedDay(src *rng.Source, day time.Time) ([]pcap.Packet, int, error) {
	echo := trafficgen.NewEcho(src)
	packets, err := echo.Boot(day)
	if err != nil {
		return nil, 0, fmt.Errorf("trafficgen boot: %w", err)
	}
	packets = append(packets, echo.Heartbeats(day, 24*time.Hour)...)
	for i := 0; i < dayCommands; i++ {
		at := day.Add(6*time.Hour + time.Duration(i)*16*time.Hour/dayCommands)
		packets = append(packets, echo.InvocationAuto(at).All()...)
	}
	sort.SliceStable(packets, func(i, j int) bool { return packets[i].Time.Before(packets[j].Time) })
	return packets, len(packets), nil
}

// mergeByTime merges two time-ordered packet slices into a new one.
func mergeByTime(a, b []pcap.Packet) []pcap.Packet {
	out := make([]pcap.Packet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Time.Before(a[i].Time) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
