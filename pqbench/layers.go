package main

// Layer replays: the recorded prefix of the op stream, on the same
// prepopulated rows, fed into each lower layer's public entry point on
// its own — a loopback server through the client, a shard pool, one
// core engine, the store, the rpc codec and the durable store. Every
// call is timed from outside and recorded as a span whose trace id is
// the op's stream position, so a layer's self time is its call time
// minus the next layer down's for the same op class.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/durable"
	"pequod/internal/freshness"
	"pequod/internal/rpc"
	"pequod/internal/server"
	"pequod/internal/shard"
	"pequod/internal/store"
	"pequod/internal/twip"
)

// replay feeds one op prefix to every layer and collects per-layer
// metrics into m.
type replay struct {
	in  *inputs
	ops []op
	tr  *tracer
	dir string // scratch directory for the durable replay
	m   map[string]float64
	// lim is the single-engine MemLimit: member 1's limit plus the base
	// rows a single engine also holds (0 when the workload never evicts).
	lim int64
}

// engine is the slice of a layer a replay drives: timeline scans, fresh
// or within a budget, and base writes.
type engine interface {
	scan(lo, hi string, budget time.Duration) ([]core.KV, error)
	put(key, value string) error
}

// layerOut is what one join-executing layer's replay returned.
type layerOut struct {
	scan, scanBounded, put []int64 // call times, ns
	reads                  map[int64][32]byte
	replies                []reply // fresh and bounded scan results
	final                  map[int32][32]byte
}

type reply struct {
	seq int64
	kvs []core.KV
}

func hashKVs(kvs []core.KV) [32]byte {
	h := sha256.New()
	for _, kv := range kvs {
		fmt.Fprintf(h, "%d:%s%d:%s", len(kv.Key), kv.Key, len(kv.Value), kv.Value)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func newReplay(in *inputs, ops []op, tr *tracer, dir string) *replay {
	rp := &replay{in: in, ops: ops, tr: tr, dir: dir, m: make(map[string]float64)}
	if in.spec.MemLimit > 0 {
		const rowOverhead = 96 + 24 // tree node and value headers per row
		rp.lim = in.spec.MemLimit + in.baseBytes + int64(len(in.subs)+len(in.posts))*rowOverhead
	}
	return rp
}

// readers returns every reader whose timeline the prefix touches plus
// the tracked readers, in a fixed order.
func (rp *replay) readers() []int32 {
	seen := make(map[int32]bool)
	var out []int32
	add := func(u int32) {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	for _, u := range rp.in.tracked {
		add(u)
	}
	for _, o := range rp.ops {
		if o.kind != twip.OpPost {
			add(o.user)
		}
	}
	return out
}

// load writes the prepopulated rows and warms the same readers as the
// cluster set-up does.
func (rp *replay) load(e engine) error {
	for _, kv := range rp.in.subs {
		if err := e.put(kv.Key, kv.Value); err != nil {
			return err
		}
	}
	for _, p := range rp.in.posts {
		if err := e.put(postKey(p.poster, p.t), p.text); err != nil {
			return err
		}
	}
	for _, u := range rp.in.readers[:rp.in.spec.Warm] {
		lo, hi := timelineRange(u, 0)
		if _, err := e.scan(lo, hi, 0); err != nil {
			return err
		}
	}
	return nil
}

// drive loads e and replays the prefix against it, recording spans
// named layer.*. loaded, if non-nil, runs after the load; settle, if
// non-nil, before the final timelines are read.
func (rp *replay) drive(layer string, e engine, loaded, settle func()) (*layerOut, error) {
	if err := rp.load(e); err != nil {
		return nil, fmt.Errorf("%s replay load: %w", layer, err)
	}
	if loaded != nil {
		loaded()
	}
	out := &layerOut{reads: make(map[int64][32]byte), final: make(map[int32][32]byte)}
	for _, o := range rp.ops {
		start := time.Now()
		if !o.isRead() {
			key, val := subKey(o.user, o.target), "1"
			if o.kind == twip.OpPost {
				key, val = postKey(o.post.poster, o.post.t), o.post.text
			}
			if err := e.put(key, val); err != nil {
				return nil, fmt.Errorf("%s replay put: %w", layer, err)
			}
			d := time.Since(start)
			out.put = append(out.put, d.Nanoseconds())
			rp.tr.add(o.seq, 0, layer+".put", start, start.Add(d))
			continue
		}
		lo, hi := timelineRange(o.user, o.since)
		budget, name := time.Duration(0), layer+".scan"
		if o.bounded {
			budget, name = boundedBudget, layer+".scan_bounded"
		}
		kvs, err := e.scan(lo, hi, budget)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s replay scan: %w", layer, err)
		}
		rp.tr.add(o.seq, 0, name, start, start.Add(d))
		out.replies = append(out.replies, reply{seq: o.seq, kvs: kvs})
		if o.bounded {
			out.scanBounded = append(out.scanBounded, d.Nanoseconds())
		} else {
			out.scan = append(out.scan, d.Nanoseconds())
			out.reads[o.seq] = hashKVs(kvs)
		}
	}
	if settle != nil {
		settle()
	}
	for _, u := range rp.readers() {
		lo, hi := timelineRange(u, 0)
		kvs, err := e.scan(lo, hi, 0)
		if err != nil {
			return nil, fmt.Errorf("%s replay final scan: %w", layer, err)
		}
		out.final[u] = hashKVs(kvs)
	}
	return out, nil
}

// sameTimelines reports the first reader or read whose result differs
// between two layers' replays.
func sameTimelines(a, b *layerOut, an, bn string, reads bool) error {
	for u, h := range a.final {
		if b.final[u] != h {
			return fmt.Errorf("replay mismatch: reader %s's final timeline differs between %s and %s", twip.UserID(u), an, bn)
		}
	}
	if len(a.final) != len(b.final) {
		return fmt.Errorf("replay mismatch: %s and %s read different reader sets", an, bn)
	}
	if reads {
		for seq, h := range a.reads {
			if b.reads[seq] != h {
				return fmt.Errorf("replay mismatch: fresh read of op %d differs between %s and %s", seq, an, bn)
			}
		}
	}
	return nil
}

// coreEngine drives one core.Engine and counts cold scans: scans that
// executed the join.
type coreEngine struct {
	e          *core.Engine
	warm, cold []int64
	sample     bool
}

func (c *coreEngine) put(key, value string) error { c.e.Put(key, value); return nil }

func (c *coreEngine) scan(lo, hi string, budget time.Duration) ([]core.KV, error) {
	before := c.e.Stats().JoinExecs
	start := time.Now()
	kvs, _ := c.e.ScanIntoBounded(lo, hi, 0, nil, budget)
	d := time.Since(start).Nanoseconds()
	switch {
	case !c.sample:
	case c.e.Stats().JoinExecs > before:
		c.cold = append(c.cold, d)
	default:
		c.warm = append(c.warm, d)
	}
	return kvs, nil
}

// poolEngine drives a two-shard pool (timelines apart from their
// sources, as on the cluster). While sampling it records the lag after
// every put and the debt after every scan, and times a Quiesce every
// 100 calls and a durable snapshot walk every 250.
type poolEngine struct {
	p             *shard.Pool
	lag           []int64
	debt          int
	quiesce, hold []int64
	n             int
	sample        bool
}

func (s *poolEngine) put(key, value string) error {
	s.p.Put(key, value)
	if s.sample {
		s.lag = append(s.lag, s.p.MaxLag(time.Now()).Nanoseconds())
		s.tick()
	}
	return nil
}

func (s *poolEngine) scan(lo, hi string, budget time.Duration) ([]core.KV, error) {
	kvs, err := s.p.ScanBounded(lo, hi, 0, nil, nil, budget, time.Time{})
	if s.sample {
		spans, _ := s.p.StalenessDebt()
		s.debt = max(s.debt, spans)
		s.tick()
	}
	return kvs, err
}

func (s *poolEngine) tick() {
	s.n++
	if s.n%100 == 0 {
		start := time.Now()
		s.p.Quiesce()
		s.quiesce = append(s.quiesce, time.Since(start).Nanoseconds())
	}
	if s.n%250 == 0 {
		start := time.Now()
		s.p.SnapshotDurable(func(k, v string) {}, func(join int, lo, hi string) {})
		s.hold = append(s.hold, time.Since(start).Nanoseconds())
	}
}

// clientEngine drives a loopback server through the client and, while
// sampling, times a ping before every fourth call.
type clientEngine struct {
	ctx    context.Context
	c      *client.Client
	pings  []int64
	n      int
	sample bool
}

func (c *clientEngine) ping() {
	c.n++
	if !c.sample || c.n%4 != 0 {
		return
	}
	start := time.Now()
	if c.c.Ping(c.ctx) == nil {
		c.pings = append(c.pings, time.Since(start).Nanoseconds())
	}
}

func (c *clientEngine) put(key, value string) error {
	c.ping()
	return c.c.Put(key, value)
}

func (c *clientEngine) scan(lo, hi string, budget time.Duration) ([]core.KV, error) {
	c.ping()
	ctx := c.ctx
	if budget > 0 {
		ctx = freshness.WithBudget(ctx, budget)
	}
	m, err := c.c.Do(ctx, &rpc.Message{Type: rpc.MsgScan, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return m.KVs, nil
}

func p50us(xs []int64) float64 { v, _, _ := quantile(xs, 0.5); return us(v) }
func p99us(xs []int64) float64 { v, _, _ := quantile(xs, 0.99); return us(v) }

// run replays every layer and checks that they agree.
func (rp *replay) run(ctx context.Context) error {
	m := rp.m

	ce := &coreEngine{e: core.New(core.Options{MemLimit: rp.lim})}
	if err := ce.e.InstallText(twip.Joins); err != nil {
		return err
	}
	coreOut, err := rp.drive("core", ce, func() { ce.sample = true }, func() { ce.sample = false })
	if err != nil {
		return err
	}
	m["core.scan_warm_p50_us"] = p50us(ce.warm)
	m["core.scan_cold_p50_us"] = p50us(ce.cold)
	m["core.put_p50_us"] = p50us(coreOut.put)
	m["core.put_p99_us"] = p99us(coreOut.put)
	coreScan := p50us(coreOut.scan)

	pool, err := shard.New(shard.Config{Shards: 2, Bounds: []string{"t|"}, Engine: core.Options{MemLimit: 2 * rp.lim}})
	if err != nil {
		return err
	}
	pe := &poolEngine{p: pool}
	if err := pool.InstallText(twip.Joins); err != nil {
		pool.Close()
		return err
	}
	loaded := func() {
		pool.Quiesce()
		pe.sample = true
	}
	settle := func() {
		pe.sample = false
		pool.Quiesce()
	}
	shardOut, err := rp.drive("shard", pe, loaded, settle)
	pool.Close()
	if err != nil {
		return err
	}
	m["shard.scan_p50_us"] = p50us(shardOut.scan)
	m["shard.scan_bounded_p50_us"] = p50us(shardOut.scanBounded)
	m["shard.put_p50_us"] = p50us(shardOut.put)
	m["shard.put_p99_us"] = p99us(shardOut.put)
	m["shard.quiesce_ms"] = p50us(pe.quiesce) / 1e3
	m["shard.max_lag_p99_us"] = p99us(pe.lag)
	m["shard.debt_spans_max"] = float64(pe.debt)
	m["shard.snapshot_hold_ms"] = p50us(pe.hold) / 1e3

	srv, err := server.New(server.Config{Name: "replay", Engine: core.Options{MemLimit: rp.lim}})
	if err != nil {
		return err
	}
	defer srv.Close()
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	c, err := client.DialContext(ctx, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.AddJoin(twip.Joins); err != nil {
		return err
	}
	se := &clientEngine{ctx: ctx, c: c}
	srvOut, err := rp.drive("server", se, func() { se.sample = true }, func() { se.sample = false })
	if err != nil {
		return err
	}
	m["server.ping_p50_us"] = p50us(se.pings)
	m["server.scan_p50_us"] = p50us(srvOut.scan)
	m["server.put_p50_us"] = p50us(srvOut.put)

	if err := sameTimelines(coreOut, srvOut, "core", "server", true); err != nil {
		return err
	}
	if err := sameTimelines(coreOut, shardOut, "core", "shard", false); err != nil {
		return err
	}
	if err := rp.codec(srvOut.replies); err != nil {
		return err
	}
	storeScan, err := rp.store(coreOut)
	if err != nil {
		return err
	}
	if err := rp.durable(); err != nil {
		return err
	}
	m["server.scan_self_p50_us"] = m["server.scan_p50_us"] - m["shard.scan_p50_us"]
	m["shard.scan_self_p50_us"] = m["shard.scan_p50_us"] - coreScan
	m["core.scan_self_p50_us"] = coreScan - storeScan
	return nil
}

// codec times rpc encode and decode over the scan replies the server
// replay produced, checking each decodes to the rows encoded.
func (rp *replay) codec(replies []reply) error {
	var rows int
	msgs := make([]*rpc.Message, len(replies))
	for i, r := range replies {
		msgs[i] = &rpc.Message{Type: rpc.MsgReply, Seq: uint64(r.seq), KVs: r.kvs}
		rows += len(r.kvs)
	}
	if rows == 0 {
		return fmt.Errorf("rpc replay: the prefix returned no rows")
	}
	frames := make([][]byte, len(msgs))
	for i, msg := range msgs {
		t0 := time.Now()
		frames[i] = msg.Encode(nil)
		t1 := time.Now()
		dm, err := rpc.Decode(frames[i][4:])
		if err != nil {
			return fmt.Errorf("rpc replay decode: %w", err)
		}
		rp.tr.add(replies[i].seq, 0, "rpc.encode", t0, t1)
		rp.tr.add(replies[i].seq, 0, "rpc.decode", t1, time.Now())
		if !slices.Equal(dm.KVs, replies[i].kvs) {
			return fmt.Errorf("replay mismatch: rpc round trip changed the reply to op %d", replies[i].seq)
		}
	}
	var enc, dec []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i, msg := range msgs {
			frames[i] = msg.Encode(frames[i][:0])
		}
		enc = append(enc, float64(time.Since(start).Nanoseconds())/float64(rows))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		for _, f := range frames {
			if _, err := rpc.Decode(f[4:]); err != nil {
				return fmt.Errorf("rpc replay decode: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(start).Nanoseconds())/float64(rows))
		runtime.ReadMemStats(&ms1)
		rp.m["rpc.decode_allocs_per_row"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(rows)
	}
	rp.m["rpc.encode_ns_per_row"] = median(enc)
	rp.m["rpc.decode_ns_per_row"] = median(dec)

	var puts []*rpc.Message
	for _, o := range rp.ops {
		if o.kind == twip.OpPost {
			puts = append(puts, &rpc.Message{Type: rpc.MsgPut, Key: postKey(o.post.poster, o.post.t), Value: o.post.text})
		}
	}
	if len(puts) > 0 {
		var buf []byte
		var per []float64
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for _, msg := range puts {
				buf = msg.Encode(buf[:0])
			}
			per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(puts)))
		}
		rp.m["rpc.encode_put_ns"] = median(per)
	}
	return nil
}

// store recomputes the final timelines of the readers the prefix
// touched on a from-scratch engine and checks them against the core
// replay's, then loads those rows into a bare store, times puts and the
// prefix's timeline scans, and checks every timeline reads back as
// written. It returns the median scan time, µs.
func (rp *replay) store(coreOut *layerOut) (float64, error) {
	e := core.New(core.Options{})
	if err := e.InstallText(twip.Joins); err != nil {
		return 0, err
	}
	for _, kv := range rp.in.subs {
		e.Put(kv.Key, kv.Value)
	}
	for _, p := range rp.in.posts {
		e.Put(postKey(p.poster, p.t), p.text)
	}
	for _, o := range rp.ops {
		switch o.kind {
		case twip.OpPost:
			e.Put(postKey(o.post.poster, o.post.t), o.post.text)
		case twip.OpSubscribe:
			e.Put(subKey(o.user, o.target), "1")
		}
	}
	readers := rp.readers()
	want := make(map[int32][]core.KV, len(readers))
	var rows []core.KV
	for _, u := range readers {
		lo, hi := timelineRange(u, 0)
		kvs, _ := e.Scan(lo, hi, 0)
		if hashKVs(kvs) != coreOut.final[u] {
			return 0, fmt.Errorf("replay mismatch: reader %s's timeline differs between the core replay and a from-scratch engine", twip.UserID(u))
		}
		want[u] = kvs
		rows = append(rows, kvs...)
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("store replay: no timeline rows")
	}
	s := store.New()
	start := time.Now()
	for _, kv := range rows {
		s.Put(kv.Key, store.NewValue(kv.Value))
	}
	rp.m["store.put_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(rows))

	var scanNs, scanRows int64
	var per []int64
	for _, o := range rp.ops {
		if !o.isRead() {
			continue
		}
		lo, hi := timelineRange(o.user, o.since)
		n := 0
		t0 := time.Now()
		s.Scan(lo, hi, func(k string, v *store.Value) bool { n++; return true })
		d := time.Since(t0)
		rp.tr.add(o.seq, 0, "store.scan", t0, t0.Add(d))
		scanNs += d.Nanoseconds()
		scanRows += int64(n)
		per = append(per, d.Nanoseconds())
	}
	rp.m["store.scan_ns_per_row"] = ratio(float64(scanNs), float64(scanRows))
	for _, u := range readers {
		lo, hi := timelineRange(u, 0)
		var got []core.KV
		s.Scan(lo, hi, func(k string, v *store.Value) bool {
			got = append(got, core.KV{Key: k, Value: v.String()})
			return true
		})
		if !slices.Equal(got, want[u]) {
			return 0, fmt.Errorf("replay mismatch: the store returned reader %s's timeline altered", twip.UserID(u))
		}
	}
	return p50us(per), nil
}

// durable feeds the base writes (prepopulation, then the prefix) to a
// durable store with the workload's sync interval, timing appends,
// syncs and snapshots.
func (rp *replay) durable() error {
	dir := filepath.Join(rp.dir, "durable-replay")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	every := rp.in.spec.SyncEvery
	if every == 0 {
		every = 10 * time.Millisecond
	}
	st, err := durable.OpenWith(dir, durable.Options{SyncEvery: every})
	if err != nil {
		return err
	}
	defer st.Close()
	base := slices.Clone(rp.in.subs)
	for _, p := range rp.in.posts {
		base = append(base, core.KV{Key: postKey(p.poster, p.t), Value: p.text})
	}
	for _, kv := range base {
		st.Append(durable.OpPut, kv.Key, kv.Value)
	}
	if err := st.Sync(); err != nil {
		return err
	}
	var appendNs, userBytes int64
	var n int
	var lag, syncs []int64
	for _, o := range rp.ops {
		if o.isRead() {
			continue
		}
		kv := core.KV{Key: subKey(o.user, o.target), Value: "1"}
		if o.kind == twip.OpPost {
			kv = core.KV{Key: postKey(o.post.poster, o.post.t), Value: o.post.text}
		}
		t0 := time.Now()
		st.Append(durable.OpPut, kv.Key, kv.Value)
		d := time.Since(t0)
		rp.tr.add(o.seq, 0, "durable.append", t0, t0.Add(d))
		appendNs += d.Nanoseconds()
		n++
		base = append(base, kv)
		lag = append(lag, st.LagBytes())
		if n%32 == 0 {
			t0 := time.Now()
			if err := st.Sync(); err != nil {
				return err
			}
			syncs = append(syncs, time.Since(t0).Nanoseconds())
		}
	}
	for _, kv := range base {
		userBytes += int64(len(kv.Key) + len(kv.Value))
	}
	var snaps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		err := st.Snapshot(func(addKV func(k, v string), addWarm func(join int, lo, hi string)) error {
			for _, kv := range base {
				addKV(kv.Key, kv.Value)
			}
			return nil
		})
		if err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(t0).Nanoseconds()))
	}
	var disk int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			disk += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	v, _, _ := quantile(lag, 0.99)
	rp.m["durable.append_ns"] = ratio(float64(appendNs), float64(n))
	rp.m["durable.sync_p50_us"] = p50us(syncs)
	rp.m["durable.snapshot_ms"] = median(snaps)
	rp.m["durable.lag_bytes_p99"] = float64(v)
	rp.m["durable.bytes_per_user_byte"] = ratio(float64(disk), float64(userBytes))
	return nil
}
