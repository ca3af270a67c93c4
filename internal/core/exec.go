package core

import (
	"sort"
	"strconv"
	"time"

	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/pattern"
	"pequod/internal/store"
)

// exec carries the state of one join execution: forward (materializing
// into the store under a join status range) or pull (into an overlay).
type exec struct {
	e    *Engine
	ij   *installedJoin
	st   *JoinStatus // nil for pull executions
	clip keys.Range  // emission clip: st.r, or the requested range for pull

	overlay *[]KV // pull destination

	// aggs accumulates aggregate groups during the run and is flushed at
	// the end; non-aggregate joins leave it nil.
	aggs map[string]*aggState

	installUpd bool // install updaters (push joins only, Fig 5)
	skipIdx    int  // source to skip during log delta application (-1 none)
	missing    int  // count of base-data loads started
}

// discovering reports whether a forward or delta execution has found
// missing data. Its status will be recomputed from scratch once the
// loads land, so from here on the execution only discovers the rest of
// the round's missing ranges: it keeps calling ensureSource, but emits
// no outputs, flushes no aggregates, installs no updaters and skips the
// last source's scan. A cold result is thus materialized once, after
// its data has arrived. Pull executions fill their overlay regardless.
func (ex *exec) discovering() bool { return ex.missing > 0 && ex.overlay == nil }

// aggState folds one output group for count/sum/min/max.
type aggState struct {
	op  join.Op
	n   int64
	set bool
}

func (a *aggState) add(v string) {
	switch a.op {
	case join.Count:
		a.n++
		a.set = true
	case join.Sum:
		a.n += atoi(v)
		a.set = true
	case join.Min:
		x := atoi(v)
		if !a.set || x < a.n {
			a.n = x
		}
		a.set = true
	case join.Max:
		x := atoi(v)
		if !a.set || x > a.n {
			a.n = x
		}
		a.set = true
	}
}

// atoi parses an aggregate operand; unparsable values count as 0, matching
// the store's schema-free tolerance.
func atoi(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// forwardExec materializes the join over gap, creating a join status
// range, installing updaters as it goes (Fig 5), and emitting outputs
// into the store. Returns the number of async loads started (the gap's
// status stays invalid until they land and a retry recomputes it).
func (e *Engine) forwardExec(ij *installedJoin, gap keys.Range) (pending int) {
	e.stats.JoinExecs++
	b, clip := ij.j.Out.ScanBinding(gap)
	st := &JoinStatus{ij: ij, r: gap, scanB: b}
	n, _ := ij.status.Insert(gap.Lo, st)
	n.Val = st
	st.node = n
	if ij.j.Maint == join.Snapshot {
		st.expires = e.now().Add(ij.j.SnapshotT)
	}

	if clip.Empty() {
		// Nothing in this gap can match the output pattern (e.g. a scan
		// over an interleaving literal the pattern doesn't produce); the
		// range is trivially valid and stays empty.
		st.valid = true
		e.lruTouch(st)
		return 0
	}

	ex := &exec{
		e:          e,
		ij:         ij,
		st:         st,
		clip:       gap,
		installUpd: ij.j.Maint == join.Push,
		skipIdx:    -1,
	}
	if ij.j.IsAggregate() {
		ex.aggs = make(map[string]*aggState)
	}
	ex.run(0, b, nil)
	ex.flushAggs()

	if ex.missing > 0 {
		// Restart context (§3.3): fetches are in flight; the status
		// remains invalid and the caller retries when loads complete.
		e.wait(st, ex.missing)
		return ex.missing
	}
	st.valid = true
	e.lruTouch(st)
	return 0
}

// execPull computes a pull join over rr into the overlay (§3.4): from
// scratch, no caching, no updaters.
func (e *Engine) execPull(ij *installedJoin, rr keys.Range, overlay *[]KV) (pending int) {
	e.stats.PullExecs++
	b, clip := ij.j.Out.ScanBinding(rr)
	if clip.Empty() {
		return 0
	}
	ex := &exec{e: e, ij: ij, clip: rr, overlay: overlay, skipIdx: -1}
	if ij.j.IsAggregate() {
		ex.aggs = make(map[string]*aggState)
	}
	start := len(*overlay)
	ex.run(0, b, nil)
	ex.flushAggs()
	// Keep the overlay sorted: each pull execution emits in source order,
	// which for a single value source follows output order per binding
	// group but not across groups; sort the fresh segment.
	seg := (*overlay)[start:]
	sort.Slice(seg, func(i, k int) bool { return seg[i].Key < seg[k].Key })
	return ex.missing
}

// run is the nested-loop join (Fig 3): enumerate sources in user order,
// clipping each to its containing range, and emit when every source has
// contributed a consistent key.
func (ex *exec) run(idx int, b pattern.Binding, val *store.Value) {
	j := ex.ij.j
	if idx == len(j.Sources) {
		ex.emit(b, val)
		return
	}
	if idx == ex.skipIdx {
		// Delta application: this source is pinned to the logged key,
		// already folded into b.
		ex.run(idx+1, b, val)
		return
	}
	src := j.Sources[idx]
	cr := pattern.ContainingRange(src.Pat, j.Out, b, ex.clip)
	if cr.Empty() {
		return
	}

	// Resolve missing data before scanning (§3.3): the source range may
	// be another join's output (recursive execution) or uncached base
	// data (async fetch + restart context).
	ex.missing += ex.e.ensureSource(src.Pat.Table(), cr)

	if ex.discovering() {
		if idx == len(j.Sources)-1 {
			return // no later source left to discover
		}
	} else if ex.installUpd {
		// Fig 5: add updater from the containing range to the join
		// status, before enumerating.
		ex.e.installUpdater(ex.st, idx, b, cr)
	}

	isValue := idx == j.ValueSource
	visit := func(k string, v *store.Value) {
		b2, ok := src.Pat.Match(k, b)
		if !ok {
			return // schema-free store: foreign keys in range
		}
		if isValue {
			ex.run(idx+1, b2, v)
		} else {
			ex.run(idx+1, b2, val)
		}
	}
	if len(ex.e.outJoins[src.Pat.Table()]) > 0 {
		// The scanned table is itself some join's output: cascaded eager
		// maintenance triggered by our emissions could mutate it while we
		// iterate. Snapshot the (small, usually point-sized) range first.
		var snap []KV
		ex.e.s.Scan(cr.Lo, cr.Hi, func(k string, v *store.Value) bool {
			snap = append(snap, KV{k, v.String()})
			return true
		})
		for _, kv := range snap {
			visit(kv.Key, store.NewValue(kv.Value))
		}
		return
	}
	ex.e.s.Scan(cr.Lo, cr.Hi, func(k string, v *store.Value) bool {
		visit(k, v)
		return true
	})
}

// emit produces one output for the tuple bound by b. Aggregates fold into
// groups; copies install (or overlay) the value.
func (ex *exec) emit(b pattern.Binding, val *store.Value) {
	if ex.discovering() {
		return
	}
	j := ex.ij.j
	outKey, ok := j.Out.BuildKey(b)
	if !ok || !ex.clip.Contains(outKey) {
		return
	}
	if ex.aggs != nil {
		a := ex.aggs[outKey]
		if a == nil {
			a = &aggState{op: j.ValueOp()}
			ex.aggs[outKey] = a
		}
		a.add(val.String())
		return
	}
	ex.install(outKey, val)
}

// install writes one output pair to the store (forward) or overlay (pull),
// honoring value sharing (§4.3) and output hints (§4.2).
func (ex *exec) install(outKey string, val *store.Value) {
	if ex.overlay != nil {
		*ex.overlay = append(*ex.overlay, KV{outKey, val.String()})
		return
	}
	v := val
	if ex.e.opts.DisableValueSharing {
		v = store.NewValue(val.String())
	}
	ex.e.applyValue(outKey, v, &ex.st.hint)
}

// flushAggs installs accumulated aggregate groups.
func (ex *exec) flushAggs() {
	if ex.aggs == nil || ex.discovering() {
		return
	}
	// Deterministic order aids tests and keeps hint locality.
	ks := make([]string, 0, len(ex.aggs))
	for k := range ex.aggs {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		a := ex.aggs[k]
		if !a.set {
			continue
		}
		if ex.overlay != nil {
			*ex.overlay = append(*ex.overlay, KV{k, itoa(a.n)})
		} else {
			ex.e.applyValue(k, store.NewValue(itoa(a.n)), &ex.st.hint)
		}
	}
}

// ensureSource makes a source range readable: recursively computing any
// joins that output into it, and starting async loads for loader-backed
// base tables. Returns the number of loads started. Always fresh (zero
// budget): it feeds forward executions and dirty recomputes, and newly
// derived coverage is computed from current sources even on a bounded
// read — the bounded win applies to already-materialized coverage.
func (e *Engine) ensureSource(table string, cr keys.Range) (missing int) {
	missing = e.ensureSourceJoins(table, cr, 0)
	if pt := e.presence[table]; pt != nil {
		missing += e.ensurePresent(table, pt, cr)
	}
	return missing
}

// ensureSourceJoins recursively freshens the joins that output into a
// source table over cr — shared by ensureSource and ensure's Pass 0,
// which deliberately skips the presence/loader half. maxStale cascades
// a bounded read's budget: a source join's within-budget staleness may
// be served, keeping the dependent's result stale by the same bound.
func (e *Engine) ensureSourceJoins(table string, cr keys.Range, maxStale time.Duration) (missing int) {
	for _, sub := range e.outJoins[table] {
		if sub.j.Maint == join.Pull {
			// Pull joins never materialize, so they cannot feed other
			// joins; feeders (like the celebrity ct| helper range) are
			// push or snapshot joins. Documented limitation.
			continue
		}
		missing += e.ensure(sub, cr, maxStale)
	}
	return missing
}

// applyLogs applies pending partial-invalidation entries to a valid
// status (§3.2): each logged check-source modification is turned into
// the minimal delta join. Entries whose shape the delta join cannot
// handle (aggregates through check changes) fall back range-granularly:
// only the output sub-interval the logged key can affect is marked
// dirty — stamped at the write's landing time, so bounded reads age it
// honestly — and the caller's dirty recompute re-derives it, leaving
// the rest of the status's coverage warm.
func (e *Engine) applyLogs(st *JoinStatus) {
	logs := st.logs
	st.logs = nil
	for _, le := range logs {
		e.stats.LogsApplied++
		if e.applyCheckDelta(st, le.srcIdx, le.key, le.op, le.had) {
			continue
		}
		src := st.ij.j.Sources[le.srcIdx]
		if b2, ok := src.Pat.Match(le.key, st.scanB); ok {
			e.markDirty(st, outAffectedRange(st.ij.j, b2, st.r), le.at)
		}
	}
}

// applyCheckDelta applies one check-source modification to a status:
// the delta-join core shared by lazy log application and eager check
// maintenance (§3.2 and the "more control over maintenance type" the
// paper asks for). Returns false when the shape is unsupported (aggregate
// joins through check changes) and the status must fully recompute.
func (e *Engine) applyCheckDelta(st *JoinStatus, srcIdx int, key string, op ChangeOp, had bool) bool {
	j := st.ij.j
	src := j.Sources[srcIdx]
	bk, ok := src.Pat.Match(key, st.scanB)
	if !ok {
		return true // outside this status's slot context
	}
	switch op {
	case OpPut:
		if had {
			// Value update on a check source: key set unchanged, and
			// check values are uninteresting — nothing to do.
			return true
		}
		if j.IsAggregate() {
			// Aggregate deltas through check-source changes need the
			// group recomputed; fall back.
			return false
		}
		ex := &exec{
			e:          e,
			ij:         st.ij,
			st:         st,
			clip:       st.r,
			installUpd: true,
			skipIdx:    srcIdx,
		}
		ex.run(0, bk, nil)
		if ex.missing > 0 {
			e.wait(st, ex.missing)
		}
	case OpRemove, OpEvict:
		if j.IsAggregate() {
			return false
		}
		// Remove outputs derived from this check key: output keys
		// matching the pattern under bk inside the status range.
		var doomed []string
		e.s.Scan(st.r.Lo, st.r.Hi, func(k string, v *store.Value) bool {
			if _, ok := j.Out.Match(k, bk); ok {
				doomed = append(doomed, k)
			}
			return true
		})
		for _, k := range doomed {
			e.removeInternal(k)
		}
		// Uninstall value-source updater contexts so future source
		// writes don't resurrect the outputs. Contexts are stored
		// compressed, so identify them by their updater's source
		// range: it must lie within the containing range the removed
		// check key implies — the same formula installation used.
		vs := j.Sources[j.ValueSource]
		rmRange := pattern.ContainingRange(vs.Pat, j.Out, bk, st.r)
		for _, u := range st.updaters {
			if u.table != vs.Pat.Table() || u.entry == nil || !rmRange.ContainsRange(u.entry.Range()) {
				continue
			}
			u.removeContextsMatching(st, func(c *updCtx) bool {
				if c.srcIdx != j.ValueSource {
					return false
				}
				// Merged updaters carry contexts for other tuples
				// (e.g. other users following the same poster); only
				// drop contexts consistent with the removed check key.
				return bindingConsistent(mergeBinding(st.scanB, c.extra), bk)
			})
			if len(u.contexts) == 0 {
				e.dropUpdater(u)
			}
		}
	}
	return true
}

// mergeBinding overlays extra onto base (extra wins on conflicts; none
// occur in practice since compression removes overlap).
func mergeBinding(base, extra pattern.Binding) pattern.Binding {
	out := base
	for i := 0; i < pattern.MaxSlots; i++ {
		if v, ok := extra.Get(i); ok {
			out = out.With(i, v)
		}
	}
	return out
}

// bindingConsistent reports whether a and b agree on every slot bound in
// both.
func bindingConsistent(a, b pattern.Binding) bool {
	for i := 0; i < pattern.MaxSlots; i++ {
		if bv, ok := b.Get(i); ok {
			if av, ok2 := a.Get(i); ok2 && av != bv {
				return false
			}
		}
	}
	return true
}
