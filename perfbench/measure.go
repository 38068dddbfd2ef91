package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its layer
// and call name, the span that caused it (0 for a root), and its
// interval in nanoseconds since the recorder's epoch. Spans of one
// operation (a batch, a burst) share their root's ID as Parent chain.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run skips tracing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reserve allocates a span ID before the span ends, so children
// recorded first can name it as their parent (0 on a nil recorder).
func (r *recorder) reserve() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// record stores the span with a reserved ID.
func (r *recorder) record(id, parent uint64, layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
}

// add records one span and returns its ID (0 on a nil recorder).
func (r *recorder) add(parent uint64, layer, name string, start, end time.Time) uint64 {
	id := r.reserve()
	r.record(id, parent, layer, name, start, end)
	return id
}

// durations returns the durations (ns) of every span named name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	if r == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace out: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace out: %w", err)
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Runtime metric names read around measured windows.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtHeapObjs   = "/memory/classes/heap/objects:bytes"
)

// runtimeSample is a point-in-time reading of the Go runtime and the
// process's CPU clock.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	heapObjs   float64
	cpu        time.Duration
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtHeapObjs}}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: sampleValue(s[0]),
		gcCPU:      sampleValue(s[1]),
		heapObjs:   sampleValue(s[2]),
		cpu:        processCPU(),
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

// runtimeDelta accumulates runtime costs over several measured
// windows (the day loops of many batches, say).
type runtimeDelta struct {
	allocBytes float64
	gcCPU      float64
	cpu        time.Duration
}

func (d *runtimeDelta) add(from, to runtimeSample) {
	d.allocBytes += to.allocBytes - from.allocBytes
	d.gcCPU += to.gcCPU - from.gcCPU
	d.cpu += to.cpu - from.cpu
}

func (d *runtimeDelta) merge(o runtimeDelta) {
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.cpu += o.cpu
}

// layerMetrics renders the Go-runtime layer metrics over ops
// operations.
func (d runtimeDelta) layerMetrics(ops int, m metricSet) {
	m.set(mRuntimeGCCPU, 100*ratio(d.gcCPU, d.cpu.Seconds()))
	m.set(mRuntimeAllocKB, ratio(d.allocBytes/1024, float64(ops)))
}
