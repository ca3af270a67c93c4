package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pequod/internal/freshness"
	"pequod/internal/loadgen"
	"pequod/internal/twip"
)

// Latency classes.
const (
	clsRead    = iota // fresh timeline scans (login and check)
	clsBounded        // timeline scans carrying boundedBudget
	clsWrite          // posts and subscriptions
	nClasses
)

var classNames = [nClasses]string{"read", "bounded_read", "write"}

const (
	// workers is the number of concurrent callers, at most nproc on the
	// two-vCPU machines the workload rates are sized for.
	workers = 2
	// queueCap bounds the open-loop dispatch queue; arrivals beyond it
	// are shed and counted. At the workloads' rates it holds several
	// seconds of backlog, so only a stalled system sheds.
	queueCap = 4096
	// opTimeout bounds one operation; a timed-out op counts as failed.
	opTimeout = 5 * time.Second
	// openWindow and closedWindow are the stretches of time the open-
	// and closed-loop phases are cut into. A figure is taken per window
	// and then summarised over the phase's windows, so a stretch in
	// which the shared machine ran slow moves it less. Open-loop windows
	// are longer so that every class has enough samples in each.
	openWindow   = 2 * time.Second
	closedWindow = time.Second
)

// pending is one dispatched op with its generator timestamps.
type pending struct {
	op         op
	scheduled  time.Time // arrival time on the open-loop clock
	dispatched time.Time // when the generator handed it to the queue
	part       int       // the window of the phase the op arrived in
	traced     bool      // record full-stack spans for this op
	root       int64     // id of the op's top-level span when traced
}

// workerStats is one worker's samples; only that worker writes it.
type workerStats struct {
	lat       [nClasses][][]int64 // ns from scheduled arrival to completion per window, untraced ops
	latTraced [nClasses][]int64   // the same for traced ops
	done      []int64             // completed ops per window
	queue     []int64             // ns between dispatch and dequeue
	rows      int64               // timeline rows returned
	reads     int64
	posts     int64
}

// phase is one timed phase's accounting.
type phase struct {
	name      string
	offered   atomic.Int64
	completed atomic.Int64
	errored   atomic.Int64
	shed      atomic.Int64
	timedOut  atomic.Int64
	elapsed   time.Duration // summed over the phase's blocks
	blockDur  time.Duration // length of one block
	perBlock  int           // windows per block
	parts     int           // windows over all blocks
	next      int           // first window of the next block
	late      []int64       // ns between scheduled arrival and dispatch (open loop)
	workers   []*workerStats
	errMu     sync.Mutex
	firstErr  error
}

// newPhase prepares the accounting of a phase run as the given number
// of blocks of blockDur each, every block cut into windows of about win.
func newPhase(name string, blocks int, blockDur, win time.Duration) *phase {
	ph := &phase{name: name, blockDur: blockDur, perBlock: max(1, int(blockDur/win))}
	ph.parts = blocks * ph.perBlock
	for i := 0; i < workers; i++ {
		ws := &workerStats{done: make([]int64, ph.parts)}
		for cls := range ws.lat {
			ws.lat[cls] = make([][]int64, ph.parts)
		}
		ph.workers = append(ph.workers, ws)
	}
	return ph
}

func (ph *phase) failed() int64 {
	return ph.errored.Load() + ph.shed.Load() + ph.timedOut.Load()
}

// samples merges the workers' latencies of one class.
func (ph *phase) samples(cls int, traced bool) []int64 {
	var out []int64
	for _, ws := range ph.workers {
		if traced {
			out = append(out, ws.latTraced[cls]...)
			continue
		}
		for _, xs := range ws.lat[cls] {
			out = append(out, xs...)
		}
	}
	return out
}

// part merges the workers' untraced latencies of one class in window i.
func (ph *phase) part(cls, i int) []int64 {
	var out []int64
	for _, ws := range ph.workers {
		out = append(out, ws.lat[cls][i]...)
	}
	return out
}

// rates returns the completions per second of each window.
func (ph *phase) rates() []float64 {
	out := make([]float64, ph.parts)
	for _, ws := range ph.workers {
		for i, n := range ws.done {
			out[i] += float64(n) / (ph.blockDur.Seconds() / float64(ph.perBlock))
		}
	}
	return out
}

func (ph *phase) queueWaits() []int64 {
	var out []int64
	for _, ws := range ph.workers {
		out = append(out, ws.queue...)
	}
	return out
}

func (ph *phase) totals() (reads, posts, rows int64) {
	for _, ws := range ph.workers {
		reads += ws.reads
		posts += ws.posts
		rows += ws.rows
	}
	return
}

// runner drives the op stream against one deployment.
type runner struct {
	in  *inputs
	d   *deployment
	chk *loadgen.Checker
	tr  *tracer // nil: no op is traced

	genMu    sync.Mutex
	gen      *opGen
	arrivals *rand.Rand // open-loop gaps, continued across blocks
	recorded []op       // stream prefix kept for the layer replays
	keep     int

	userBytes atomic.Int64 // key+value bytes of acknowledged base writes
}

func newRunner(in *inputs, d *deployment, chk *loadgen.Checker, keep int) *runner {
	r := &runner{in: in, d: d, chk: chk, gen: newOpGen(in), keep: keep,
		arrivals: rand.New(rand.NewSource(in.seed ^ 0x61727276))}
	r.userBytes.Store(in.baseBytes)
	return r
}

func (r *runner) nextOp() op {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	o := r.gen.next()
	if len(r.recorded) < r.keep {
		r.recorded = append(r.recorded, o)
	}
	return o
}

// exec runs one op against the cluster, feeds the checker, and returns
// when the op completed (before the checker's audit).
func (r *runner) exec(ctx context.Context, p *pending, ws *workerStats) (time.Time, error) {
	o := &p.op
	cl := r.d.cl
	span := func(name string, start, end time.Time) {
		if p.traced {
			r.tr.add(o.seq, p.root, name, start, end)
		}
	}
	switch o.kind {
	case twip.OpPost:
		key := postKey(o.post.poster, o.post.t)
		r.chk.PostIssued(o.post.poster, o.post.t, o.post.text)
		start := time.Now()
		err := cl.Put(ctx, key, o.post.text)
		done := time.Now()
		span("cluster.put", start, done)
		if err != nil {
			r.chk.PostFailed(o.post.poster, o.post.t)
			return done, err
		}
		r.chk.PostAcked(o.post.poster, o.post.t)
		r.userBytes.Add(int64(len(key) + len(o.post.text)))
		ws.posts++
		return done, nil
	case twip.OpSubscribe:
		key := subKey(o.user, o.target)
		start := time.Now()
		err := cl.Put(ctx, key, "1")
		done := time.Now()
		span("cluster.put", start, done)
		if err == nil {
			r.userBytes.Add(int64(len(key) + 1))
		}
		return done, err
	}
	lo, hi := timelineRange(o.user, o.since)
	rctx, name := ctx, "cluster.scan"
	if o.bounded {
		rctx, name = freshness.WithBudget(ctx, boundedBudget), "cluster.scan_bounded"
	}
	start := time.Now()
	kvs, err := cl.Scan(rctx, lo, hi, 0)
	done := time.Now()
	span(name, start, done)
	if err != nil {
		return done, err
	}
	ws.reads++
	ws.rows += int64(len(kvs))
	if o.bounded {
		r.chk.OnBoundedCheck(o.user, o.since, kvs, start, boundedBudget)
	} else {
		r.chk.OnCheck(o.user, o.since, kvs, start)
	}
	span("checker.audit", done, time.Now())
	return done, nil
}

func classOf(o *op) int {
	switch {
	case !o.isRead():
		return clsWrite
	case o.bounded:
		return clsBounded
	}
	return clsRead
}

// run executes one op and accounts for it.
func (r *runner) run(ctx context.Context, ph *phase, ws *workerStats, p *pending) {
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	done, err := r.exec(octx, p, ws)
	cancel()
	switch {
	case err == nil:
		ph.completed.Add(1)
		ws.done[p.part]++
		cls := classOf(&p.op)
		if p.traced {
			ws.latTraced[cls] = append(ws.latTraced[cls], done.Sub(p.scheduled).Nanoseconds())
			r.tr.addID(p.root, p.op.seq, 0, "op."+classNames[cls], p.scheduled, done)
		} else {
			ws.lat[cls][p.part] = append(ws.lat[cls][p.part], done.Sub(p.scheduled).Nanoseconds())
		}
		return
	case errors.Is(err, context.DeadlineExceeded):
		ph.timedOut.Add(1)
	default:
		ph.errored.Add(1)
	}
	ph.errMu.Lock()
	if ph.firstErr == nil {
		ph.firstErr = fmt.Errorf("op %d (%s): %w", p.op.seq, classNames[classOf(&p.op)], err)
	}
	ph.errMu.Unlock()
}

// window returns the window an op issued at offset into the phase's
// current block falls in.
func (ph *phase) window(offset time.Duration) int {
	return ph.next + min(int(offset*time.Duration(ph.perBlock)/ph.blockDur), ph.perBlock-1)
}

// openLoop runs one block of the phase, offering the workload's rate:
// exponential gaps on a clock of its own, each op timed from its
// scheduled arrival, arrivals beyond the queue shed. With traceWindow >
// 0, ops arriving in every other window of that length are traced.
func (r *runner) openLoop(ctx context.Context, ph *phase, traceWindow time.Duration) {
	ch := make(chan *pending, queueCap)
	var wg sync.WaitGroup
	for _, ws := range ph.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range ch {
				now := time.Now()
				ws.queue = append(ws.queue, now.Sub(p.dispatched).Nanoseconds())
				if p.traced {
					r.tr.add(p.op.seq, p.root, "loadgen.queue", p.dispatched, now)
				}
				r.run(ctx, ph, ws, p)
			}
		}()
	}
	start := time.Now()
	offset := 0.0
	for ctx.Err() == nil {
		offset += r.arrivals.ExpFloat64() / r.in.spec.Rate
		due := time.Duration(offset * float64(time.Second))
		if due >= ph.blockDur {
			break
		}
		at := start.Add(due)
		waitUntil(at)
		genStart := time.Now()
		p := &pending{op: r.nextOp(), scheduled: at, part: ph.window(due)}
		p.dispatched = time.Now()
		p.traced = traceWindow > 0 && (due/traceWindow)%2 == 1
		ph.late = append(ph.late, p.dispatched.Sub(at).Nanoseconds())
		ph.offered.Add(1)
		if p.traced {
			p.root = r.tr.newID()
			r.tr.add(p.op.seq, p.root, "loadgen.late", at, p.dispatched)
			r.tr.add(p.op.seq, p.root, "loadgen.gen", genStart, p.dispatched)
		}
		select {
		case ch <- p:
		default:
			ph.shed.Add(1)
		}
	}
	close(ch)
	wg.Wait()
	ph.elapsed += time.Since(start)
	ph.next += ph.perBlock
}

// waitUntil returns at t. time.Sleep overshoots short sleeps by up to a
// millisecond, which would land in every op's latency, so the
// generator sleeps in the kernel instead, on a high-resolution timer.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// closedLoop runs one block of the phase, every worker issuing its next
// op as soon as the previous one returns.
func (r *runner) closedLoop(ctx context.Context, ph *phase) {
	start := time.Now()
	deadline := start.Add(ph.blockDur)
	var wg sync.WaitGroup
	for _, ws := range ph.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				now := time.Now()
				p := &pending{op: r.nextOp(), scheduled: now, dispatched: now, part: ph.window(now.Sub(start))}
				ph.offered.Add(1)
				r.run(ctx, ph, ws, p)
			}
		}()
	}
	wg.Wait()
	ph.elapsed += time.Since(start)
	ph.next += ph.perBlock
}

// finalSweep quiesces the cluster and audits every tracked reader's
// whole timeline with no staleness grace.
func (r *runner) finalSweep(ctx context.Context) error {
	if err := r.d.cl.Quiesce(ctx); err != nil {
		return fmt.Errorf("final quiesce: %w", err)
	}
	for _, u := range r.in.tracked {
		lo, hi := timelineRange(u, 0)
		kvs, err := r.d.cl.Scan(ctx, lo, hi, 0)
		if err != nil {
			return fmt.Errorf("final sweep: %w", err)
		}
		r.chk.FinalSweep(u, kvs, time.Now())
	}
	return nil
}

// newChecker shadows the tracked readers and registers every
// prepopulated post as issued and acknowledged.
func newChecker(in *inputs) *loadgen.Checker {
	chk := loadgen.NewChecker(checkerBudget, in.tracked, in.uni.Followees)
	for _, p := range in.posts {
		chk.PostIssued(p.poster, p.t, p.text)
		chk.PostAcked(p.poster, p.t)
	}
	return chk
}
