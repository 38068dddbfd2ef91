package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"voiceguard"
	"voiceguard/internal/emul"
	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

// echoCycle is one wire-guard cycle's traffic after its heartbeat, as
// record lengths on the wire, drawn from the repository's Echo traffic
// model. Each record is written on its own, so the guard sees many
// small chunks.
type echoCycle struct {
	// response is a response-phase spike: the recognizer releases it
	// without a decision. Its last record is sent as a heartbeat
	// frame, so the cloud acknowledges the spike's arrival.
	response []int
	// command is a command-phase spike: activation record, signalling
	// records with a p-138/p-75 marker or a fallback pattern, then the
	// voice upload. Its last record is sent as the end of command, so
	// the cloud answers a released command.
	command []int
}

// drawCycle draws the next cycle from a speaker's Echo generator.
func drawCycle(e *trafficgen.Echo) echoCycle {
	inv := e.Invocation(time.Time{}, 1)
	c := echoCycle{command: inv.CommandSpike().Lengths()}
	for _, s := range inv.Spikes {
		if s.Phase == trafficgen.PhaseResponse {
			c.response = s.Lengths()
		}
	}
	return c
}

// newSpeakerEcho returns a speaker's Echo generator. Its anomaly rate
// is 0: an anomalous command spike is the model's deliberate
// recognition miss, and the oracle calls every command spike a command.
func newSpeakerEcho(src *rng.Source) *trafficgen.Echo {
	e := trafficgen.NewEcho(src)
	e.AnomalyRate = 0
	return e
}

func sumLengths(lengths []int) int {
	n := 0
	for _, l := range lengths {
		n += l
	}
	return n
}

// The DecisionFunc's deliberation on wire-guard: a fixed base plus a
// seeded per-command jitter, long enough for the command's remaining
// records to pile up in the hold queue.
const (
	guardHoldBase   = time.Millisecond
	guardHoldJitter = time.Millisecond
	// probeWait is how long a speaker whose command was dropped waits
	// for the cloud's alert before sending another heartbeat to
	// provoke it.
	probeWait = 2 * time.Millisecond
)

// guardRun is one wire-guard run.
type guardRun struct {
	st  *wireState
	g   *voiceguard.LiveGuard
	res *wireResult
}

// connect opens a speaker session and waits for the cloud to
// acknowledge its first heartbeat: one session set-up.
func (w *guardRun) connect(sp *speakerState) error {
	start := time.Now()
	c, err := emul.DialSpeaker(w.g.Addr())
	if err != nil {
		return err
	}
	w.st.bind(sp, c.LocalAddr())
	sp.client = c
	if err := w.heartbeat(sp); err != nil {
		return fmt.Errorf("first heartbeat: %w", err)
	}
	end := time.Now()
	// Speakers reconnect concurrently after their drops.
	w.st.mu.Lock()
	w.res.sessionSetup = append(w.res.sessionSetup, float64(end.Sub(start)))
	w.st.mu.Unlock()
	w.st.rec.add(0, "proxy", "session_setup", start, end)
	return nil
}

// heartbeat sends one Echo keep-alive and awaits the cloud's ack.
func (w *guardRun) heartbeat(sp *speakerState) error {
	if err := sp.client.SendPattern([]int{trafficgen.HeartbeatLen}, emul.MsgHeartbeat); err != nil {
		return err
	}
	return awaitFrame(sp.client, emul.MsgAck)
}

func awaitFrame(c *emul.SpeakerClient, typ byte) error {
	f, err := c.Await(opTimeout)
	if err != nil {
		return err
	}
	if f.Type != typ {
		return fmt.Errorf("cloud sent frame %q, want %q", f.Type, typ)
	}
	return nil
}

// cycle runs one speaker cycle: heartbeat, non-command spike, command
// spike.
func (w *guardRun) cycle(sp *speakerState, b *burst, c echoCycle) error {
	if err := w.heartbeat(sp); err != nil {
		return fmt.Errorf("heartbeat: %w", err)
	}
	if err := sendSpike(sp.client, c.response, emul.MsgHeartbeat); err != nil {
		return err
	}
	if err := awaitFrame(sp.client, emul.MsgAck); err != nil {
		return fmt.Errorf("non-command spike: %w", err)
	}
	time.Sleep(pacing)
	return w.command(sp, b, c.command)
}

// sendSpike writes a spike one record per write, the last record as a
// frame of type last and the others as command frames.
func sendSpike(c *emul.SpeakerClient, lengths []int, last byte) error {
	n := len(lengths) - 1
	if err := c.SendPattern(lengths[:n], emul.MsgCommand); err != nil {
		return err
	}
	return c.SendPattern(lengths[n:], last)
}

// command sends one command spike and follows it to its resolution:
// the cloud's answer for a release; for a drop, the cloud's alert on
// the broken record sequence, then a new session.
//
// A drop verdict can land while the speaker is still writing the
// spike. The plane then forwards the remaining records, the cloud
// alerts on the gap and closes, and a later write fails. A write that
// fails after the DecisionFunc returned a drop is that teardown; any
// other write failure fails the command.
func (w *guardRun) command(sp *speakerState, b *burst, records []int) error {
	w.st.begin(sp, b)
	defer w.st.end(sp)
	now := time.Now()
	w.st.mu.Lock()
	b.write = now
	w.st.mu.Unlock()
	sendErr := sendSpike(sp.client, records, emul.MsgEnd)
	sendEnd := time.Now()
	ev, err := sp.await(evDecided, b.id)
	if err != nil {
		if sendErr != nil {
			return sendErr
		}
		return err
	}
	if sendErr != nil {
		w.st.mu.Lock()
		torn := !ev.verdict && sendEnd.After(b.exit)
		w.st.mu.Unlock()
		if !torn {
			return sendErr
		}
		return w.dropped(sp, b, sendEnd)
	}
	if ev.verdict {
		err := awaitFrame(sp.client, emul.MsgResponse)
		at := time.Now()
		if err != nil {
			return fmt.Errorf("released command: %w", err)
		}
		w.st.mu.Lock()
		b.arrivals++
		b.arrive = at
		w.st.mu.Unlock()
		w.st.recordBurst(b)
		time.Sleep(pacing)
		return nil
	}
	at, err := w.awaitAlert(sp)
	if err != nil {
		return err
	}
	return w.dropped(sp, b, at)
}

// dropped records a dropped command's teardown, seen at at, and opens
// the speaker's next session.
func (w *guardRun) dropped(sp *speakerState, b *burst, at time.Time) error {
	w.st.mu.Lock()
	b.teardown = at
	w.st.mu.Unlock()
	w.st.recordBurst(b)
	sp.client.Close()
	return w.connect(sp)
}

// awaitAlert waits for the cloud to end a session whose command was
// dropped. The cloud alerts when the first record after the gap
// reaches it, so the speaker sends a heartbeat, and sends another
// each probeWait in case the plane swallowed the last one with the
// dropped hold.
func (w *guardRun) awaitAlert(sp *speakerState) (time.Time, error) {
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		if err := sp.client.SendPattern([]int{trafficgen.HeartbeatLen}, emul.MsgHeartbeat); err != nil {
			return time.Now(), nil // the session is already gone
		}
		f, err := sp.client.Await(probeWait)
		var ne net.Error
		switch {
		case err == nil:
			return time.Time{}, fmt.Errorf("cloud sent frame %q after a dropped command", f.Type)
		case errors.As(err, &ne) && ne.Timeout():
		default:
			return time.Now(), nil // alert or close
		}
	}
	return time.Time{}, errors.New("the cloud never ended the session of a dropped command")
}

// speak runs one speaker's closed loop until the deadline.
func (w *guardRun) speak(sp *speakerState, deadline time.Time) {
	for time.Now().Before(deadline) {
		c := drawCycle(sp.echo)
		b := w.st.nextBurst(sp, sumLengths(c.command))
		b.hold = guardHoldBase + time.Duration(sp.src.Float64()*float64(guardHoldJitter))
		if err := w.cycle(sp, b, c); err != nil {
			w.st.mu.Lock()
			if b.fail == "" {
				b.fail = err.Error()
			}
			if n := len(sp.bursts); n == 0 || sp.bursts[n-1] != b {
				// The cycle failed before its command was sent.
				sp.bursts = append(sp.bursts, b)
			}
			w.st.mu.Unlock()
			// Start over on a new session, so one failed cycle costs
			// one cycle, not the rest of the run.
			sp.client.Close()
			if w.connect(sp) != nil {
				return
			}
		}
	}
}

func runGuard(cfg config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	st := newWireState(cfg, rec)
	root := rng.New(cfg.seed).Split("perfbench/" + workloadGuard)
	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	w := &guardRun{st: st, res: &wireResult{}}

	speakers := make([]*speakerState, wireSpeakers)
	for i := range speakers {
		speakers[i] = &speakerState{
			idx: i, src: root.SplitN("speaker", i), events: make(chan event, 2),
			echo: newSpeakerEcho(root.SplitN("echo", i)),
		}
	}
	for r := 0; r < setupReps; r++ {
		cpu0 := processCPU()
		g, err := voiceguard.StartLiveGuard("127.0.0.1:0", cloud.Addr(), st.decide, idleGap)
		if err != nil {
			return nil, err
		}
		w.g = g
		for _, sp := range speakers {
			if err := w.connect(sp); err != nil {
				g.Close()
				return nil, err
			}
		}
		w.res.addSetup(processCPU() - cpu0)
		if r == setupReps-1 {
			break
		}
		if err := w.shutdown(speakers); err != nil {
			return nil, err
		}
	}

	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, sp := range speakers {
		wg.Add(1)
		go func(sp *speakerState) {
			defer wg.Done()
			w.speak(sp, deadline)
		}(sp)
	}
	wg.Wait()
	w.res.measure = time.Since(start)
	w.res.rt.add(rt0, readRuntime())

	if rec != nil {
		if err := w.probeHeap(speakers[0]); err != nil {
			st.problem("%v", err)
		}
	}
	if err := w.shutdown(speakers); err != nil {
		return nil, err
	}
	stats := w.g.Stats()
	st.mu.Lock()
	released, dropped := st.oracleCountsLocked()
	if stats.CommandsHeld != st.calls || stats.CommandsReleased != released || stats.CommandsDropped != dropped {
		st.problems = append(st.problems, fmt.Sprintf("LiveGuard stats %+v disagree with the oracle's %d releases and %d drops", stats, released, dropped))
	}
	st.mu.Unlock()
	if got := cloud.CompletedCommands(); got != released {
		st.problem("cloud completed %d commands, the oracle released %d", got, released)
	}
	if got := cloud.SequenceAborts(); got != dropped {
		st.problem("cloud aborted %d sessions, the oracle dropped %d commands", got, dropped)
	}
	st.report(speakers, w.res, rec, out)
	return out, nil
}

// shutdown closes every speaker session and the guard, and checks that
// the guard kept no per-session state.
func (w *guardRun) shutdown(speakers []*speakerState) error {
	for _, sp := range speakers {
		if sp.client != nil {
			sp.client.Close()
			sp.client = nil
		}
	}
	err := w.g.Close()
	if n := w.g.TrackedSessions(); n != 0 {
		w.st.problem("LiveGuard kept %d sessions after Close", n)
	}
	return err
}

// probeHeap runs the hold-memory probe on released command spikes.
func (w *guardRun) probeHeap(sp *speakerState) error {
	for k := 0; k < heapProbes; k++ {
		c := drawCycle(sp.echo)
		b := w.st.nextBurst(sp, sumLengths(c.command))
		b.wantRelease, b.traced, b.probe = true, false, true
		w.st.begin(sp, b)
		growth, held, err := w.st.heapProbe(func() (int, error) {
			w.st.mu.Lock()
			b.write = time.Now()
			w.st.mu.Unlock()
			return b.size, sendSpike(sp.client, c.command, emul.MsgEnd)
		}, func() error {
			if _, err := sp.await(evDecided, b.id); err != nil {
				return err
			}
			err := awaitFrame(sp.client, emul.MsgResponse)
			at := time.Now()
			w.st.mu.Lock()
			b.arrivals++
			b.arrive = at
			w.st.mu.Unlock()
			time.Sleep(pacing)
			return err
		})
		w.st.end(sp)
		if err != nil {
			return err
		}
		w.res.heapGrowth += growth
		w.res.heapHeld += held
	}
	return nil
}
