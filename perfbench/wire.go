package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"voiceguard"
	"voiceguard/internal/emul"
	"voiceguard/internal/proxy"
	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

// Wire-plane workload parameters. Both wire workloads are closed
// loops: each speaker sends its next burst only once the previous one
// has resolved, so a slower plane receives less load instead of
// growing a queue.
const (
	// wireSpeakers is the number of speaker connections. One speaker
	// keeps the second vCPU for the plane and the upstream; with two,
	// wire-guard's CPU per cycle spread about three times as much
	// between runs.
	wireSpeakers = 1
	// setup_s on the wire is the CPU of one plane start plus its first
	// sessions: the mean over each setupChunk of setupReps starts, and
	// the median of those means. CPU rather than wall time, because
	// the host's slow phases doubled the wall time of set-up between
	// two sets of runs.
	setupReps  = 1200
	setupChunk = 100
	// idleGap is the planes' spike separator. The planes split a spike
	// wherever its writes pause for idleGap, so it is ten times the
	// few milliseconds a loaded shared host can stall a thread: a
	// stall inside a spike must not change which bursts the plane
	// sees.
	idleGap = 50 * time.Millisecond
	// pacing is a speaker's quiet time after a burst resolves. It is
	// counted from an event that happens after the plane saw the
	// burst's last byte, so the plane always sees a gap longer than
	// idleGap and every burst is a burst of its own.
	pacing      = idleGap + time.Millisecond
	dropPercent = 20
	// opTimeout bounds every wait on the plane; an operation that has
	// not resolved by then failed.
	opTimeout  = 5 * time.Second
	heapProbes = 5
)

// A wire-proxy burst is one write: a 16-byte header (burst ID, total
// length, CRC-32 of the body) and a body cut from a seeded random pool.
const frameHeader = 16

var burstSizes = []int{64, 256, 1024, 4096, 16384}

// burst is one operation on a wire workload: a wire-proxy burst or a
// wire-guard command spike. Fields after the first block are written
// under wireState.mu.
type burst struct {
	id          uint64
	speaker     int
	size        int
	wantRelease bool          // the verdict the workload's oracle assigns
	hold        time.Duration // how long the DecisionFunc deliberates
	traced      bool
	probe       bool // a heap-probe burst: checked, but kept out of the latency figures

	decides  int // DecisionFunc calls for this burst
	arrivals int // complete copies the upstream received
	fail     string
	write    time.Time // the burst was due: its first byte is written
	enter    time.Time // DecisionFunc entered
	exit     time.Time // DecisionFunc returned
	arrive   time.Time // last byte upstream (wire-guard: the cloud's answer)
	teardown time.Time // a dropped burst's session is seen torn down
}

// check returns why the burst failed its output checks, or "". Every
// check is on what the plane did: the DecisionFunc calls it made and
// what reached the upstream.
func (b *burst) check() string {
	switch {
	case b.fail != "":
		return b.fail
	case b.decides != 1:
		return fmt.Sprintf("DecisionFunc ran %d times", b.decides)
	case b.wantRelease && b.arrivals != 1:
		return fmt.Sprintf("released burst arrived upstream %d times", b.arrivals)
	case !b.wantRelease && b.arrivals != 0:
		return fmt.Sprintf("a dropped burst reached upstream, %v after the DecisionFunc returned", b.arrive.Sub(b.exit))
	}
	return ""
}

// added is the plane's own latency for a released burst: due to last
// byte upstream, less the time spent inside the DecisionFunc.
func (b *burst) added() time.Duration {
	return b.arrive.Sub(b.write) - b.exit.Sub(b.enter)
}

type eventKind int

const (
	evDecided eventKind = iota // the DecisionFunc returned
	evArrived                  // the upstream received the whole burst
)

type event struct {
	kind    eventKind
	id      uint64
	verdict bool
}

// speakerState is one benchmark-owned speaker.
type speakerState struct {
	idx    int
	src    *rng.Source // this speaker's own stream: sizes, verdicts, holds
	seq    uint32
	events chan event // evDecided then, on wire-proxy, evArrived: two per burst
	cur    *burst     // the burst in flight (under wireState.mu)
	addr   string     // the address the plane sees (under wireState.mu)
	bursts []*burst   // every burst this speaker attempted

	// The speaker's session: a raw connection and the upstream's
	// report of its close (wire-proxy), or an emulated client
	// (wire-guard).
	conn   net.Conn
	closed chan time.Time
	client *emul.SpeakerClient
	echo   *trafficgen.Echo // wire-guard: this speaker's traffic model
}

// wireState is shared by the speakers, the DecisionFunc and the
// upstream.
type wireState struct {
	rec    *recorder
	inject uint64 // burst whose verdict the DecisionFunc flips (0: none)

	mu       sync.Mutex
	speakers map[string]*speakerState // by the address the plane sees
	byID     map[uint64]*burst
	problems []string
	calls    int // DecisionFunc calls
	drops    int // bursts whose first DecisionFunc call the oracle answers with a drop
	strays   int // DecisionFunc calls no burst in flight explains
	holdPeak int64
	park     chan struct{} // non-nil: the DecisionFunc waits on it (heap probe)
}

func newWireState(cfg config, rec *recorder) *wireState {
	st := &wireState{rec: rec, speakers: map[string]*speakerState{}, byID: map[uint64]*burst{}}
	if cfg.injectWrongVerdict {
		st.inject = burstID(0, 3)
	}
	return st
}

func burstID(speaker int, seq uint32) uint64 { return uint64(speaker+1)<<32 | uint64(seq) }

func (st *wireState) problem(format string, args ...any) {
	st.mu.Lock()
	st.problems = append(st.problems, fmt.Sprintf(format, args...))
	st.mu.Unlock()
}

// bind maps the address the plane will report for a speaker's new
// connection to the speaker.
func (st *wireState) bind(sp *speakerState, addr string) {
	st.mu.Lock()
	delete(st.speakers, sp.addr)
	sp.addr = addr
	st.speakers[addr] = sp
	st.mu.Unlock()
}

// begin registers a new burst as the speaker's burst in flight.
func (st *wireState) begin(sp *speakerState, b *burst) {
	st.mu.Lock()
	st.byID[b.id] = b
	sp.cur = b
	sp.bursts = append(sp.bursts, b)
	st.mu.Unlock()
}

func (st *wireState) end(sp *speakerState) {
	st.mu.Lock()
	sp.cur = nil
	st.mu.Unlock()
}

// nextBurst draws a speaker's next burst from its stream.
func (st *wireState) nextBurst(sp *speakerState, size int) *burst {
	sp.seq++
	b := &burst{
		id:          burstID(sp.idx, sp.seq),
		speaker:     sp.idx,
		size:        size,
		wantRelease: sp.src.IntN(100) >= dropPercent,
		traced:      st.rec != nil && sp.seq%2 == 0,
	}
	return b
}

// oracleCountsLocked returns how many DecisionFunc calls the plane
// should count as released and as dropped: the oracle's verdict for
// each burst's first call, and a release for every other call (those
// fail their burst's check). Callers hold st.mu.
func (st *wireState) oracleCountsLocked() (released, dropped int) {
	return st.calls - st.drops, st.drops
}

// decide is the workload's DecisionFunc. It finds the burst in flight
// from the speaker address the plane passes, deliberates for the
// burst's hold, and returns the oracle's verdict for it.
func (st *wireState) decide(ctx context.Context) bool {
	enter := time.Now()
	st.mu.Lock()
	st.calls++
	var b *burst
	sp := st.speakers[voiceguard.SpeakerAddr(ctx)]
	if sp != nil {
		b = sp.cur
	}
	if b == nil || b.decides > 0 {
		if b != nil {
			b.decides++
		} else {
			st.strays++
		}
		st.mu.Unlock()
		return true
	}
	b.decides = 1
	b.enter = enter
	if !b.wantRelease {
		st.drops++
	}
	park := st.park
	st.mu.Unlock()

	if park != nil {
		select {
		case <-park:
		case <-ctx.Done():
		}
	}
	if b.hold > 0 {
		t := time.NewTimer(b.hold)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	verdict := b.wantRelease
	if b.id == st.inject {
		verdict = !verdict
	}
	held := proxy.HeldBytes()
	st.mu.Lock()
	b.exit = time.Now()
	if held > st.holdPeak {
		st.holdPeak = held
	}
	st.mu.Unlock()
	sp.events <- event{kind: evDecided, id: b.id, verdict: verdict}
	return verdict
}

// await waits for the speaker's next event of the given kind for
// burst id. Events left over from an earlier burst that failed are
// skipped: what they report is already on that burst's record.
func (sp *speakerState) await(kind eventKind, id uint64) (event, error) {
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	for {
		select {
		case ev := <-sp.events:
			if ev.id < id {
				continue
			}
			if ev.kind != kind || ev.id != id {
				return ev, fmt.Errorf("event %d for burst %x while awaiting %d for %x", ev.kind, ev.id, kind, id)
			}
			return ev, nil
		case <-t.C:
			return event{}, errors.New("timed out awaiting the plane")
		}
	}
}

// wireResult gathers what every wire workload measures.
type wireResult struct {
	setups       []float64 // s: mean CPU per plane start, one per chunk
	setupCPU     time.Duration
	setupN       int
	sessionSetup []float64 // ns
	measure      time.Duration
	rt           runtimeDelta
	heapGrowth   float64
	heapHeld     float64
}

// addSetup records one plane start's CPU; every setupChunk starts
// become one setup_s sample.
func (r *wireResult) addSetup(cpu time.Duration) {
	r.setupCPU += cpu
	r.setupN++
	if r.setupN == setupChunk {
		r.setups = append(r.setups, r.setupCPU.Seconds()/setupChunk)
		r.setupCPU, r.setupN = 0, 0
	}
}

// report runs every burst check and renders the metrics.
func (st *wireState) report(speakers []*speakerState, res *wireResult, rec *recorder, out *outcome) {
	var added, tracedAdded, untracedAdded, holdEnter, release, teardown []float64
	measured, done := 0, 0 // operations in the measured window, and those that passed
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sp := range speakers {
		for _, b := range sp.bursts {
			out.attempted++
			if !b.probe {
				measured++
			}
			if why := b.check(); why != "" {
				out.failed++
				out.fail("burst %x: %s", b.id, why)
				continue
			}
			if b.probe {
				continue
			}
			done++
			holdEnter = append(holdEnter, float64(b.enter.Sub(b.write)))
			if !b.wantRelease {
				teardown = append(teardown, float64(b.teardown.Sub(b.exit)))
				continue
			}
			a := float64(b.added())
			added = append(added, a)
			release = append(release, float64(b.arrive.Sub(b.exit)))
			if b.traced {
				tracedAdded = append(tracedAdded, a)
			} else {
				untracedAdded = append(untracedAdded, a)
			}
		}
	}
	for _, p := range st.problems {
		out.fail("%s", p)
	}
	if st.strays > 0 {
		out.fail("%d DecisionFunc calls for no burst in flight", st.strays)
	}

	out.e2e.set(mSetup, median(res.setups))
	out.e2e.set(mCPUPerOp, ratio(float64(res.rt.cpu.Microseconds()), float64(measured)))
	out.e2e.set(mRSS, peakRSSMB())
	out.e2e.set(mAccuracy, 100*ratio(float64(done), float64(measured)))
	if rec == nil {
		return
	}
	l := out.layer
	l.set(mThroughput, ratio(float64(done), res.measure.Seconds()))
	l.set(mLatP50, quantile(added, 0.50)/1e6)
	l.set(mLatP90, quantile(added, 0.90)/1e6)
	l.set(mLatP99, quantile(added, 0.99)/1e6)
	l.set(mSetupP50, quantile(res.sessionSetup, 0.50)/1e6)
	l.set(mSetupP99, quantile(res.sessionSetup, 0.99)/1e6)
	l.set(mHoldEnterP50, quantile(holdEnter, 0.50)/1e3)
	l.set(mHoldEnterP99, quantile(holdEnter, 0.99)/1e3)
	l.set(mReleaseP50, quantile(release, 0.50)/1e3)
	l.set(mReleaseP99, quantile(release, 0.99)/1e3)
	l.set(mDropTeardown, median(teardown)/1e6)
	l.set(mHoldHeap, ratio(res.heapGrowth, res.heapHeld))
	l.set(mHoldPeak, float64(st.holdPeak))
	res.rt.layerMetrics(measured, l)
	if len(tracedAdded) > 0 && len(untracedAdded) > 0 {
		l.set(mTraceOverhead, 100*(median(tracedAdded)/median(untracedAdded)-1))
	}
	// The ledger: the released bursts' added latency against their
	// count times the typical cost of each stage on the path (hold
	// entry, then release).
	total := sum(added)
	explained := float64(len(added)) * (median(holdEnter) + median(release))
	l.set(mLedger, 100*ratio(math.Abs(total-explained), total))
}

// recordBurst records a traced burst's spans once it has resolved.
func (st *wireState) recordBurst(b *burst) {
	if !b.traced || st.rec == nil {
		return
	}
	st.mu.Lock()
	write, enter, exit, arrive, teardown := b.write, b.enter, b.exit, b.arrive, b.teardown
	st.mu.Unlock()
	last := arrive
	if !b.wantRelease {
		last = teardown
	}
	root := st.rec.add(0, "perfbench", "burst", write, last)
	st.rec.add(root, "live", "hold_enter", write, enter)
	st.rec.add(root, "live", "DecisionFunc", enter, exit)
	if b.wantRelease {
		st.rec.add(root, "proxy", "release", exit, arrive)
	} else {
		st.rec.add(root, "proxy", "drop_teardown", exit, teardown)
	}
}

// heapProbe measures what holding a burst costs in heap: with the
// DecisionFunc parked and the collector off, it writes one burst and
// waits until the proxy has queued all of it, then reads the growth in
// heap objects. send writes the burst and returns its payload bytes;
// resolve completes it once the DecisionFunc is let go.
func (st *wireState) heapProbe(send func() (int, error), resolve func() error) (growth, held float64, err error) {
	park := make(chan struct{})
	st.mu.Lock()
	st.park = park
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.park = nil
		st.mu.Unlock()
	}()
	// Two collections empty the transport's buffer pool, so the held
	// copies show up as new heap rather than recycled buffers.
	runtime.GC()
	runtime.GC()
	prev := debug.SetGCPercent(-1)
	h0 := readRuntime().heapObjs
	n, err := send()
	if err != nil {
		debug.SetGCPercent(prev)
		close(park)
		return 0, 0, err
	}
	deadline := time.Now().Add(opTimeout)
	for proxy.HeldBytes() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	queued := proxy.HeldBytes()
	h1 := readRuntime().heapObjs
	debug.SetGCPercent(prev)
	close(park)
	if err := resolve(); err != nil {
		return 0, 0, err
	}
	if queued < int64(n) {
		return 0, 0, fmt.Errorf("heap probe: %d of %d bytes queued", queued, n)
	}
	return h1 - h0, float64(n), nil
}

// ---- wire-proxy ----

// upstream is the benchmark's cloud side for wire-proxy: it accepts
// the proxy's connections, hands each to the speaker that is dialing
// (dials are serialized, so the pairing is exact), and checks every
// burst that arrives.
type upstream struct {
	st       *wireState
	lis      net.Listener
	accepted chan net.Conn
	stop     chan struct{}
	wg       sync.WaitGroup
}

func startUpstream(st *wireState) (*upstream, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("upstream listen: %w", err)
	}
	u := &upstream{st: st, lis: lis, accepted: make(chan net.Conn), stop: make(chan struct{})}
	u.wg.Add(1)
	go u.acceptLoop()
	return u, nil
}

func (u *upstream) acceptLoop() {
	defer u.wg.Done()
	for {
		c, err := u.lis.Accept()
		if err != nil {
			return
		}
		select {
		case u.accepted <- c:
		case <-u.stop:
			c.Close()
			return
		}
	}
}

// close stops accepting and waits for every connection handler.
func (u *upstream) close() {
	close(u.stop)
	u.lis.Close()
	u.wg.Wait()
}

// serve reads one proxied connection's bursts until it closes, then
// reports the close time on closed.
func (u *upstream) serve(c net.Conn, sp *speakerState, closed chan<- time.Time) {
	defer u.wg.Done()
	defer c.Close()
	r := bufio.NewReaderSize(c, 32<<10)
	var hdr [frameHeader]byte
	body := make([]byte, 0, burstSizes[len(burstSizes)-1])
	var lastSeq uint32
	for {
		n, err := io.ReadFull(r, hdr[:])
		if err != nil {
			if n > 0 {
				u.st.problem("speaker %d: %d stray bytes reached upstream", sp.idx, n)
			}
			closed <- time.Now()
			return
		}
		id := binary.BigEndian.Uint64(hdr[0:8])
		size := int(binary.BigEndian.Uint32(hdr[8:12]))
		sum := binary.BigEndian.Uint32(hdr[12:16])
		if size < frameHeader || size > cap(body) {
			u.st.problem("speaker %d: burst %x has a corrupt header", sp.idx, id)
			closed <- time.Now()
			return
		}
		body = body[:size-frameHeader]
		if _, err := io.ReadFull(r, body); err != nil {
			u.st.problem("speaker %d: burst %x reached upstream incomplete", sp.idx, id)
			closed <- time.Now()
			return
		}
		at := time.Now()
		seq := uint32(id)
		u.st.mu.Lock()
		b := u.st.byID[id]
		switch {
		case b == nil || b.speaker != sp.idx:
			u.st.problems = append(u.st.problems, fmt.Sprintf("speaker %d: unknown burst %x upstream", sp.idx, id))
		case crc32.ChecksumIEEE(body) != sum:
			b.fail = "checksum mismatch upstream"
		case seq <= lastSeq:
			b.fail = "burst arrived out of order"
		default:
			b.arrivals++
			b.arrive = at
		}
		lastSeq = seq
		u.st.mu.Unlock()
		if b != nil {
			select {
			case sp.events <- event{kind: evArrived, id: id}:
			default:
				u.st.problem("speaker %d: burst %x arrived again", sp.idx, id)
			}
		}
	}
}

// proxyRun is one wire-proxy run.
type proxyRun struct {
	st      *wireState
	up      *upstream
	lp      *voiceguard.LiveProxy
	pool    []byte // seeded random body bytes
	dialSem chan struct{}
	res     *wireResult
}

// connect dials the proxy for a speaker and waits until the upstream
// has accepted the proxied connection: one session set-up.
func (p *proxyRun) connect(sp *speakerState) error {
	p.dialSem <- struct{}{}
	defer func() { <-p.dialSem }()
	start := time.Now()
	conn, err := net.DialTimeout("tcp", p.lp.Addr(), opTimeout)
	if err != nil {
		return fmt.Errorf("dial proxy: %w", err)
	}
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	var up net.Conn
	select {
	case up = <-p.up.accepted:
	case <-t.C:
		conn.Close()
		return errors.New("the upstream never saw the proxied connection")
	}
	end := time.Now()
	p.st.bind(sp, conn.LocalAddr().String())
	sp.conn, sp.closed = conn, make(chan time.Time, 1)
	p.up.wg.Add(1)
	go p.up.serve(up, sp, sp.closed)
	p.res.sessionSetup = append(p.res.sessionSetup, float64(end.Sub(start)))
	p.st.rec.add(0, "proxy", "session_setup", start, end)
	return nil
}

// hangUp closes a speaker's connection and returns when the upstream
// has seen the proxied connection close. Events the closed session
// left behind (an arrival of a burst that failed) are discarded: the
// burst's record already holds them.
func (p *proxyRun) hangUp(sp *speakerState) (time.Time, error) {
	sp.conn.Close()
	sp.conn = nil
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	select {
	case at := <-sp.closed:
		for len(sp.events) > 0 {
			<-sp.events
		}
		return at, nil
	case <-t.C:
		return time.Time{}, errors.New("the upstream never saw the session close")
	}
}

// frame builds a burst's single write.
func (p *proxyRun) frame(b *burst) []byte {
	out := make([]byte, b.size)
	off := int(b.id * 2654435761 % uint64(len(p.pool)-b.size+frameHeader))
	copy(out[frameHeader:], p.pool[off:])
	binary.BigEndian.PutUint64(out[0:8], b.id)
	binary.BigEndian.PutUint32(out[8:12], uint32(b.size))
	binary.BigEndian.PutUint32(out[12:16], crc32.ChecksumIEEE(out[frameHeader:]))
	return out
}

// sendBurst writes one burst and follows it to its resolution. A
// dropped burst ends its session: the speaker hangs up, waits for the
// upstream to see the close, and reconnects.
func (p *proxyRun) sendBurst(sp *speakerState, b *burst) error {
	p.st.begin(sp, b)
	defer p.st.end(sp)
	frame := p.frame(b)
	now := time.Now()
	p.st.mu.Lock()
	b.write = now
	p.st.mu.Unlock()
	if _, err := sp.conn.Write(frame); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	ev, err := sp.await(evDecided, b.id)
	if err != nil {
		return err
	}
	if ev.verdict {
		if _, err := sp.await(evArrived, b.id); err != nil {
			return err
		}
		p.st.recordBurst(b)
		time.Sleep(pacing)
		return nil
	}
	at, err := p.hangUp(sp)
	if err != nil {
		return err
	}
	p.st.mu.Lock()
	b.teardown = at
	p.st.mu.Unlock()
	p.st.recordBurst(b)
	return p.connect(sp)
}

// speak runs one speaker's closed loop until the deadline.
func (p *proxyRun) speak(sp *speakerState, deadline time.Time) {
	for time.Now().Before(deadline) {
		b := p.st.nextBurst(sp, burstSizes[sp.src.IntN(len(burstSizes))])
		if err := p.sendBurst(sp, b); err != nil {
			p.st.mu.Lock()
			if b.fail == "" {
				b.fail = err.Error()
			}
			p.st.mu.Unlock()
			// Start over on a new session, so one failed burst costs
			// one burst, not the rest of the run.
			if sp.conn != nil {
				_, _ = p.hangUp(sp)
			}
			if p.connect(sp) != nil {
				return
			}
		}
	}
}

func runProxy(cfg config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	st := newWireState(cfg, rec)
	root := rng.New(cfg.seed).Split("perfbench/" + workloadProxy)
	p := &proxyRun{st: st, dialSem: make(chan struct{}, 1), res: &wireResult{}}
	poolSrc := root.Split("payload")
	p.pool = make([]byte, 2*burstSizes[len(burstSizes)-1])
	for i := range p.pool {
		p.pool[i] = byte(poolSrc.IntN(256))
	}
	up, err := startUpstream(st)
	if err != nil {
		return nil, err
	}
	p.up = up
	defer up.close()

	speakers := make([]*speakerState, wireSpeakers)
	for i := range speakers {
		speakers[i] = &speakerState{idx: i, src: root.SplitN("speaker", i), events: make(chan event, 2)}
	}

	// Set-up: plane start plus every speaker's first session, several
	// times; the last plane stays up for the measured window.
	for r := 0; r < setupReps; r++ {
		cpu0 := processCPU()
		lp, err := voiceguard.StartLiveProxy("127.0.0.1:0", up.lis.Addr().String(), st.decide, idleGap)
		if err != nil {
			return nil, err
		}
		p.lp = lp
		for _, sp := range speakers {
			if err := p.connect(sp); err != nil {
				lp.Close()
				return nil, err
			}
		}
		p.res.addSetup(processCPU() - cpu0)
		if r == setupReps-1 {
			break
		}
		if err := p.shutdown(speakers); err != nil {
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
			p.speak(sp, deadline)
		}(sp)
	}
	wg.Wait()
	p.res.measure = time.Since(start)
	p.res.rt.add(rt0, readRuntime())

	if rec != nil {
		if err := p.probeHeap(speakers[0]); err != nil {
			st.problem("%v", err)
		}
	}
	if err := p.shutdown(speakers); err != nil {
		return nil, err
	}
	stats := p.lp.Stats()
	st.mu.Lock()
	released, dropped := st.oracleCountsLocked()
	if stats.HeldBursts != st.calls || stats.ReleasedBursts != released || stats.DroppedBursts != dropped {
		st.problems = append(st.problems, fmt.Sprintf("LiveProxy stats %+v disagree with the oracle's %d releases and %d drops", stats, released, dropped))
	}
	st.mu.Unlock()
	st.report(speakers, p.res, rec, out)
	return out, nil
}

// shutdown hangs every speaker up, closes the plane and checks that it
// kept no session state.
func (p *proxyRun) shutdown(speakers []*speakerState) error {
	for _, sp := range speakers {
		if sp.conn == nil {
			continue
		}
		if _, err := p.hangUp(sp); err != nil {
			return err
		}
	}
	err := p.lp.Close()
	if n := p.lp.ActiveSessions(); n != 0 {
		p.st.problem("LiveProxy kept %d sessions after Close", n)
	}
	return err
}

// probeHeap runs the hold-memory probe once per burst size.
func (p *proxyRun) probeHeap(sp *speakerState) error {
	for k := 0; k < heapProbes; k++ {
		b := p.st.nextBurst(sp, burstSizes[k%len(burstSizes)])
		b.wantRelease, b.traced, b.probe = true, false, true
		p.st.begin(sp, b)
		growth, held, err := p.st.heapProbe(func() (int, error) {
			frame := p.frame(b)
			p.st.mu.Lock()
			b.write = time.Now()
			p.st.mu.Unlock()
			_, err := sp.conn.Write(frame)
			return len(frame), err
		}, func() error {
			if _, err := sp.await(evDecided, b.id); err != nil {
				return err
			}
			_, err := sp.await(evArrived, b.id)
			time.Sleep(pacing)
			return err
		})
		p.st.end(sp)
		if err != nil {
			return err
		}
		p.res.heapGrowth += growth
		p.res.heapHeld += held
	}
	return nil
}
