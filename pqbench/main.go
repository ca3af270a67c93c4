// Command pqbench is Pequod's benchmark: one process that starts an
// in-process two-member cluster, prepopulates it from a seed, and drives
// the Twip workload named by -workload through an open-loop phase
// (latency, timed from each op's scheduled arrival) and a closed-loop
// phase (capacity), run as alternating blocks. Every timeline read is
// audited by loadgen's Checker.
// With -trace 1 it instead records spans around each layer's public
// entry points and reports per-layer metrics. The last line of standard
// output is one JSON object with the verdict and the metrics.
//
//	go run . -workload timeline-warm -seed 1 -seconds 30 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
)

// metric is one reported value's definition.
type metric struct {
	name string
	unit string
}

var endToEnd = []metric{
	{"read_p50_us", "us"}, {"bounded_read_p50_us", "us"}, {"write_p50_us", "us"},
	{"throughput_ops", "ops/s"},
	{"bytes_per_user_byte", "B/B"},
	{"setup_s", "s"},
}

var perLayer = []metric{
	{"loadgen.late_p99_us", "us"}, {"loadgen.queue_wait_p50_us", "us"}, {"loadgen.queue_wait_p99_us", "us"},
	{"cluster.scan_p50_us", "us"}, {"cluster.scan_p99_us", "us"}, {"cluster.scan_bounded_p99_us", "us"},
	{"cluster.put_p50_us", "us"}, {"cluster.put_p99_us", "us"},
	{"cluster.rpcs_per_op", "count"}, {"cluster.quiesce_ms", "ms"}, {"cluster.scan_self_p50_us", "us"},
	{"server.ping_p50_us", "us"}, {"server.scan_p50_us", "us"}, {"server.put_p50_us", "us"},
	{"server.scan_self_p50_us", "us"},
	{"rpc.decode_ns_per_row", "ns"}, {"rpc.decode_allocs_per_row", "count"},
	{"rpc.encode_ns_per_row", "ns"}, {"rpc.encode_put_ns", "ns"},
	{"shard.scan_p50_us", "us"}, {"shard.scan_bounded_p50_us", "us"},
	{"shard.put_p50_us", "us"}, {"shard.put_p99_us", "us"}, {"shard.quiesce_ms", "ms"},
	{"shard.max_lag_p99_us", "us"}, {"shard.debt_spans_max", "count"}, {"shard.snapshot_hold_ms", "ms"},
	{"shard.scan_self_p50_us", "us"},
	{"core.scan_warm_p50_us", "us"}, {"core.scan_cold_p50_us", "us"},
	{"core.put_p50_us", "us"}, {"core.put_p99_us", "us"}, {"core.scan_self_p50_us", "us"},
	{"core.join_execs_per_read", "count"}, {"core.updater_fires_per_post", "count"},
	{"core.logs_applied_per_read", "count"}, {"core.dirty_recomputes_per_read", "count"},
	{"core.evictions_per_read", "count"}, {"core.loads_per_read", "count"},
	{"core.scanned_keys_per_row", "count"}, {"core.bounded_serve_share", "share"},
	{"store.scan_ns_per_row", "ns"}, {"store.put_ns", "ns"},
	{"durable.append_ns", "ns"}, {"durable.sync_p50_us", "us"}, {"durable.snapshot_ms", "ms"},
	{"durable.lag_bytes_p99", "B"}, {"durable.bytes_per_user_byte", "B/B"},
	{"runtime.alloc_bytes_per_op", "B"}, {"runtime.gc_cpu_share", "share"}, {"runtime.gc_pause_p99_us", "us"},
	{"trace.read_p50_overhead_us", "us"},
}

const (
	setups = 3 // set-ups per untraced run; setup_s is their median
	// blocks is how many open-loop and closed-loop stretches an untraced
	// run alternates, so that both phases sample the whole run and a
	// slow spell of the shared machine does not fall on one phase only.
	blocks    = 5
	replayOps = 2000 // op-stream prefix the layer replays feed
	// lateLimit is the generator lateness p99 beyond which a run is
	// invalid: the offered load was no longer the workload's.
	lateLimit = 20 * time.Millisecond
	// traceWindow alternates traced and untraced arrivals in the traced
	// run, so both see the same system state.
	traceWindow = 250 * time.Millisecond
)

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: timeline-warm, post-storm or cold-evict")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch data and span files")
	flag.Parse()
	// Both members, the client and the generator share this process's
	// heap, where a deployment gives each member its own. At the default
	// GOGC the shared heap is marked about once a second, and each mark
	// takes one of the two processors for 100-200 ms, which sets the
	// tail. Collecting at 5x the live heap keeps the marks rarer. The
	// runtime.* metrics still report what collection costs.
	debug.SetGCPercent(400)
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	work := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, work, *out)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(sp spec, seed int64, dur time.Duration, traced bool, work, out string) (*result, error) {
	ctx := context.Background()
	in := newInputs(sp, seed)
	fmt.Printf("workload %s seed %d: %s\n", sp.Name, seed, sp.describe())
	fmt.Printf("inputs digest %s (prepopulation + first %d ops)\n", in.digest(digestOps), digestOps)
	fmt.Printf("timeline footprint %d B, member 1 MemLimit %d B", in.footprint, sp.MemLimit)
	if sp.MemLimit > 0 {
		fmt.Printf(" (footprint %.1fx MemLimit)", float64(in.footprint)/float64(sp.MemLimit))
	}
	fmt.Println()
	if sp.MemLimit > 0 && in.footprint < 3*sp.MemLimit {
		return nil, fmt.Errorf("self-check: footprint %d B is under 3x MemLimit %d B", in.footprint, sp.MemLimit)
	}
	chk := newChecker(in)

	n := setups
	if traced {
		n = 1
	}
	d, setupTimes, err := setUp(ctx, in, n, work)
	if err != nil {
		return nil, err
	}
	defer d.close()
	fmt.Printf("set-up times %.3v s\n", setupTimes)

	keep := 0
	var tr *tracer
	if traced {
		keep, tr = replayOps, newTracer()
	}
	r := newRunner(in, d, chk, keep)
	st0, err := d.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	snaps0, err := d.snapshots(ctx)
	if err != nil {
		return nil, err
	}
	rpc0, rt0 := d.cl.RPCs(), readRuntime()

	var open, closed *phase
	var stored, written int64
	quiesces := 0
	if traced {
		open = newPhase("open-loop", 1, dur*6/10, openWindow)
		stop := sampleQuiesce(ctx, d, tr)
		r.tr = tr
		r.openLoop(ctx, open, traceWindow)
		quiesces = stop()
	} else {
		open = newPhase("open-loop", blocks, dur*6/10/blocks, openWindow)
		closed = newPhase("closed-loop", blocks, dur*4/10/blocks, closedWindow)
		for b := 0; b < blocks; b++ {
			r.openLoop(ctx, open, 0)
			if b == 0 {
				// Stored bytes are read after the first open-loop
				// block, whose ops are the same on every run; later
				// ones depend on the closed loop's speed.
				if stored, err = storedBytes(ctx, d); err != nil {
					return nil, err
				}
				written = r.userBytes.Load()
			}
			r.closedLoop(ctx, closed)
			if b < blocks-1 {
				// The next open-loop block starts from a settled
				// cluster, not from the burst's backlog.
				if err := d.cl.Quiesce(ctx); err != nil {
					return nil, err
				}
			}
		}
	}
	rpc1, rt1 := d.cl.RPCs(), readRuntime()
	st1, err := d.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	snaps1, err := d.snapshots(ctx)
	if err != nil {
		return nil, err
	}
	if err := r.finalSweep(ctx); err != nil {
		return nil, err
	}
	rep := chk.Report()
	fmt.Printf("checker: tracked=%d audits=%d rows_verified=%d bounded=%d violations=%d\n",
		rep.TrackedUsers, rep.ChecksAudited, rep.RowsVerified, rep.BoundedChecks, rep.Violations)
	if rep.Violations > 0 {
		for _, s := range rep.Samples {
			fmt.Fprintln(os.Stderr, "  violation:", s)
		}
		return nil, fmt.Errorf("checker found %d violations", rep.Violations)
	}

	phases := []*phase{open}
	if !traced {
		phases = append(phases, closed)
	}
	res := &result{Correct: true, Metrics: make(map[string]metricJSON)}
	for _, ph := range phases {
		res.Attempted += ph.offered.Load()
		res.Failed += ph.failed()
		fmt.Printf("%s: %.2fs offered=%d completed=%d errored=%d shed=%d timed_out=%d\n", ph.name,
			ph.elapsed.Seconds(), ph.offered.Load(), ph.completed.Load(), ph.errored.Load(), ph.shed.Load(), ph.timedOut.Load())
		if ph.firstErr != nil {
			fmt.Printf("  first failure: %v\n", ph.firstErr)
		}
	}
	late, lateBeyond, _ := quantile(open.late, 0.99)
	fmt.Printf("generator lateness p99 %.1f us (%d samples beyond; limit %v)\n", us(late), lateBeyond, lateLimit)
	if time.Duration(late) > lateLimit {
		return nil, fmt.Errorf("invalid run: the generator fell behind (lateness p99 %v > %v)", time.Duration(late), lateLimit)
	}

	var reads, posts, rows int64
	for _, ph := range phases {
		a, b, c := ph.totals()
		reads, posts, rows = reads+a, posts+b, rows+c
	}
	per := func(n func(core.Stats) int64, base int64) float64 {
		return ratio(float64(n(st1)-n(st0)), float64(base))
	}
	bounded := int64(len(open.samples(clsBounded, false)) + len(open.samples(clsBounded, true)))
	counts := map[string]float64{
		"core.join_execs_per_read":       per(func(s core.Stats) int64 { return s.JoinExecs }, reads),
		"core.updater_fires_per_post":    per(func(s core.Stats) int64 { return s.UpdaterFires }, posts),
		"core.logs_applied_per_read":     per(func(s core.Stats) int64 { return s.LogsApplied }, reads),
		"core.dirty_recomputes_per_read": per(func(s core.Stats) int64 { return s.DirtyRecomputes }, reads),
		"core.evictions_per_read":        per(func(s core.Stats) int64 { return s.Evictions }, reads),
		"core.loads_per_read":            per(func(s core.Stats) int64 { return s.LoadsStarted }, reads),
		"core.scanned_keys_per_row":      per(func(s core.Stats) int64 { return s.ScannedKeys }, rows),
		"core.bounded_serve_share":       per(func(s core.Stats) int64 { return s.BoundedStaleServes }, bounded),
	}
	if err := selfCheck(sp, counts, snaps0, snaps1); err != nil {
		return nil, err
	}

	if traced {
		m, err := layerMetrics(ctx, r, open, counts, rpc1-rpc0-int64(quiesces*len(d.addrs)), rt0, rt1, work)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", sp.Name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		printSpanCounts(tr)
		return res, fill(res, perLayer, m)
	}

	m := make(map[string]float64)
	for cls := 0; cls < nClasses; cls++ {
		name := classNames[cls]
		all := open.samples(cls, false)
		p90, b90, _ := quantile(all, 0.9)
		p99, b99, _ := quantile(all, 0.99)
		fmt.Printf("%s over the phase: n=%d p90=%.1f us (%d beyond) p99=%.1f us (%d beyond)\n",
			name, len(all), us(p90), b90, us(p99), b99)
		var p50s []float64
		for i := 0; i < open.parts; i++ {
			xs := open.part(cls, i)
			p50, beyond, _ := quantile(xs, 0.5)
			if beyond < minBeyond {
				return nil, fmt.Errorf("invalid run: %s p50 in window %d has %d samples beyond it, need %d", name, i, beyond, minBeyond)
			}
			p50s = append(p50s, us(p50))
		}
		m[name+"_p50_us"] = fquantile(p50s, 0.25)
		fmt.Printf("  p50 per %v window %.0f us; lower quartile %.1f us, median %.1f us\n",
			openWindow, p50s, m[name+"_p50_us"], median(p50s))
	}
	rates := closed.rates()
	m["throughput_ops"] = fquantile(rates, 0.75)
	fmt.Printf("closed-loop ops/s per %v window %.0f; upper quartile %.1f, median %.1f\n",
		closedWindow, rates, m["throughput_ops"], median(rates))
	m["bytes_per_user_byte"] = float64(stored) / float64(written)
	m["setup_s"] = median(setupTimes)
	return res, fill(res, endToEnd, m)
}

// setUp deploys n times, closing all but the last deployment, and
// returns it with every set-up's duration in seconds.
func setUp(ctx context.Context, in *inputs, n int, work string) (*deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		d, err := deploy(ctx, in, filepath.Join(work, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == n-1 {
			return d, times, nil
		}
		d.close()
	}
}

// sampleQuiesce times a Cluster.Quiesce every 500 ms until the returned
// stop is called; stop returns how many were issued.
func sampleQuiesce(ctx context.Context, d *deployment, tr *tracer) (stop func() int) {
	quit := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- n
				return
			case <-tick.C:
			}
			start := time.Now()
			if d.cl.Quiesce(ctx) == nil {
				tr.add(-1, 0, "cluster.quiesce", start, time.Now())
			}
			n++
		}
	}()
	return func() int {
		close(quit)
		return <-done
	}
}

// storedBytes sums the members' stored bytes.
func storedBytes(ctx context.Context, d *deployment) (int64, error) {
	snaps, err := d.snapshots(ctx)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range snaps {
		n += s.Bytes
	}
	return n, nil
}

// selfCheck fails the run when a workload did not exercise the
// mechanism it is named for.
func selfCheck(sp spec, counts map[string]float64, before, after []*client.StatSnapshot) error {
	joins, evicts := counts["core.join_execs_per_read"], counts["core.evictions_per_read"]
	fmt.Printf("self-check: join_execs/read=%.3f evictions/read=%.3f updater_fires/post=%.1f\n",
		joins, evicts, counts["core.updater_fires_per_post"])
	switch sp.Name {
	case "timeline-warm":
		if joins > 0.15 || evicts > 0.001 {
			return fmt.Errorf("self-check: timeline-warm recomputed timelines (join execs/read %.3f, evictions/read %.3f)", joins, evicts)
		}
	case "cold-evict":
		if joins < 0.5 || evicts < 0.5 {
			return fmt.Errorf("self-check: cold-evict served warm (join execs/read %.3f, evictions/read %.3f)", joins, evicts)
		}
	case "post-storm":
		if f := counts["core.updater_fires_per_post"]; f < 5 {
			return fmt.Errorf("self-check: post-storm fan-out too small (updater fires/post %.2f)", f)
		}
		for i := range after {
			if after[i].Durable == nil || before[i].Durable == nil {
				return fmt.Errorf("self-check: post-storm member %d is not durable", i)
			}
			snaps := after[i].Durable.Snapshot - before[i].Durable.Snapshot
			fmt.Printf("self-check: member %d completed %d snapshots\n", i, snaps)
			if snaps < 3 {
				return fmt.Errorf("self-check: post-storm member %d completed %d snapshots, want >= 3", i, snaps)
			}
		}
	}
	return nil
}

// fill copies the defined metrics into res, failing on any missing one.
func fill(res *result, defs []metric, m map[string]float64) error {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return nil
}

func printSpanCounts(tr *tracer) {
	counts := tr.counts()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %d spans\n", n, counts[n])
	}
}

// layerMetrics computes the traced run's per-layer metrics: generator
// and cluster spans from the live run, core counts from the cluster's
// statistics, and the lower layers from the replays.
func layerMetrics(ctx context.Context, r *runner, open *phase, counts map[string]float64, rpcs int64, rt0, rt1 rtSample, work string) (map[string]float64, error) {
	tr := r.tr
	rp := newReplay(r.in, r.recorded, tr, work)
	start := time.Now()
	if err := rp.run(ctx); err != nil {
		return nil, err
	}
	fmt.Printf("layer replays: %d ops in %.2fs, timelines identical across layers\n", len(r.recorded), time.Since(start).Seconds())
	m := rp.m
	for k, v := range counts {
		m[k] = v
	}
	q := func(xs []int64, p float64) float64 { v, _, _ := quantile(xs, p); return us(v) }
	m["loadgen.late_p99_us"] = q(open.late, 0.99)
	waits := open.queueWaits()
	m["loadgen.queue_wait_p50_us"] = q(waits, 0.5)
	m["loadgen.queue_wait_p99_us"] = q(waits, 0.99)
	scans := tr.durations("cluster.scan")
	m["cluster.scan_p50_us"] = q(scans, 0.5)
	m["cluster.scan_p99_us"] = q(scans, 0.99)
	m["cluster.scan_bounded_p99_us"] = q(tr.durations("cluster.scan_bounded"), 0.99)
	puts := tr.durations("cluster.put")
	m["cluster.put_p50_us"] = q(puts, 0.5)
	m["cluster.put_p99_us"] = q(puts, 0.99)
	m["cluster.quiesce_ms"] = q(tr.durations("cluster.quiesce"), 0.5) / 1e3
	m["cluster.rpcs_per_op"] = float64(rpcs) / float64(open.completed.Load())
	m["cluster.scan_self_p50_us"] = m["cluster.scan_p50_us"] - m["server.scan_p50_us"]

	m["runtime.alloc_bytes_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(open.completed.Load())
	m["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	m["runtime.gc_pause_p99_us"] = pauseQuantile(rt0, rt1, 0.99) * 1e6

	m["trace.read_p50_overhead_us"] = q(open.samples(clsRead, true), 0.5) - q(open.samples(clsRead, false), 0.5)
	fmt.Printf("tracing overhead: traced fresh-read p50 minus untraced %.1f us\n", m["trace.read_p50_overhead_us"])
	return m, nil
}
