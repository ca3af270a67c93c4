package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place)
// and how many samples lie beyond it; ok is false when xs is empty.
func quantile(xs []int64, q float64) (v int64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = max(rank, 1)
	return xs[rank-1], len(xs) - rank, true
}

// minBeyond is the number of samples a reported percentile needs
// beyond it.
const minBeyond = 10

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

func median(xs []float64) float64 { return fquantile(xs, 0.5) }

// fquantile returns the q-quantile of xs, interpolating between the two
// nearest ranks.
func fquantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed interval. Spans of one op share its trace id (the
// op's stream position); parent 0 marks a top-level span.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a span under a fresh id.
func (t *tracer) add(trace, parent int64, name string, start, end time.Time) {
	t.addID(t.newID(), trace, parent, name, start, end)
}

// addID records a span whose id was taken earlier with newID.
func (t *tracer) addID(id, trace, parent int64, name string, start, end time.Time) {
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the lengths (ns) of every span with the name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// counts returns the number of spans per name.
func (t *tracer) counts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int)
	for _, s := range t.spans {
		out[s.Name]++
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtSample is a reading of the Go runtime's allocation and GC metrics.
type rtSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	pauses     *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return rtSample{
		allocBytes: ms[0].Value.Uint64(),
		gcCPU:      ms[1].Value.Float64(),
		totalCPU:   ms[2].Value.Float64(),
		pauses:     ms[3].Value.Float64Histogram(),
	}
}

// pauseQuantile is the q-quantile (seconds) of the GC pauses between
// two readings, taken at each bucket's upper bound.
func pauseQuantile(a, b rtSample, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.pauses.Counts))
	for i := range delta {
		delta[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi
		}
	}
	return 0
}
