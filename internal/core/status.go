package core

import (
	"time"

	"pequod/internal/interval"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/pattern"
	"pequod/internal/rbtree"
	"pequod/internal/store"
)

// JoinStatus is a join status range (§3.2): it records whether a range of
// output keys is up to date with respect to one cache join. Status ranges
// for a join are disjoint; keys outside every status range are simply not
// materialized yet.
type JoinStatus struct {
	ij *installedJoin
	r  keys.Range

	valid   bool
	expires time.Time // snapshot joins: recompute after this instant

	// scanB is the slot set derived from r at creation; updater contexts
	// are compressed against it (§3.2's context compression).
	scanB pattern.Binding

	// logs holds partially-invalidating source modifications to be
	// applied on the next read (§3.2 lazy maintenance).
	logs []logEntry

	// dirty lists sub-intervals of r whose outputs are stale: a source
	// write landed whose effect on this range could not (or chose not
	// to) be applied incrementally, and the affected output
	// sub-interval — keyed through the join's key transform — was
	// marked instead of invalidating the whole range, so sibling
	// coverage stays valid and warm. A fresh read recomputes the dirty
	// intersection before serving; a bounded read may serve a span's
	// rows as they stand while the span's age is within its budget.
	dirty []dirtySpan

	// hint is the output hint (§4.2).
	hint store.Hint

	// updaters lists the updaters carrying contexts for this status, so
	// invalidation can uninstall them.
	updaters []*Updater

	// pendingLoads counts outstanding base-data fetches whose restart
	// contexts point here (§3.3). While it is positive the status is on
	// the engine's waiter list.
	pendingLoads int

	node *rbtree.Node[*JoinStatus]
	lru  lruEntry
}

// logEntry records one modification to a lazily-maintained (check) source.
type logEntry struct {
	srcIdx int
	key    string
	op     ChangeOp
	had    bool      // key existed before the change (update vs insert)
	at     time.Time // when the modification landed (staleness bookkeeping)
}

// dirtySpan is one stale sub-interval of a join status range.
type dirtySpan struct {
	r  keys.Range
	at time.Time // when the span first went stale (its oldest unapplied write)
}

// maxDirtySpans bounds per-status dirty bookkeeping. Past it the spans
// collapse into one covering span — degrading to whole-range
// granularity for that status, never losing an invalidation.
const maxDirtySpans = 32

// markDirty records that outputs of st inside r are stale as of `at`.
// Overlapping spans coalesce, keeping the earliest stamp so a span's
// age always reflects its oldest unapplied write.
func (e *Engine) markDirty(st *JoinStatus, r keys.Range, at time.Time) {
	r = r.Intersect(st.r)
	if r.Empty() || !st.valid {
		return // invalid statuses recompute wholesale anyway
	}
	e.stats.PartialInvalidations++
	out := st.dirty[:0]
	for _, d := range st.dirty {
		if d.r.Overlaps(r) {
			r = spanUnion(d.r, r)
			if d.at.Before(at) {
				at = d.at
			}
			continue
		}
		out = append(out, d)
	}
	st.dirty = append(out, dirtySpan{r: r, at: at})
	if len(st.dirty) > maxDirtySpans {
		oldest := st.dirty[0].at
		for _, d := range st.dirty[1:] {
			if d.at.Before(oldest) {
				oldest = d.at
			}
		}
		st.dirty = append(st.dirty[:0], dirtySpan{r: st.r, at: oldest})
	}
}

// spanUnion returns the smallest range containing both a and b.
func spanUnion(a, b keys.Range) keys.Range {
	lo := a.Lo
	if b.Lo < lo {
		lo = b.Lo
	}
	hi := a.Hi
	if keys.HiLess(hi, b.Hi) {
		hi = b.Hi
	}
	return keys.Range{Lo: lo, Hi: hi}
}

// ensure brings the join's coverage of rr up to date within maxStale:
// applies pending logs, recomputes invalid or expired ranges and dirty
// sub-intervals, and forward-executes uncovered gaps (Fig 5). maxStale
// zero is a fresh read (today's semantics). A positive maxStale lets
// the read skip applying logs and recomputing dirty spans whose oldest
// unapplied write is younger than the budget — the materialized rows
// are served as they stand, stale by at most maxStale. Coverage gaps
// and invalid ranges always compute fresh regardless of budget: a
// bounded read may serve old state, never fabricate or lose rows. It
// returns outstanding load count.
func (e *Engine) ensure(ij *installedJoin, rr keys.Range, maxStale time.Duration) (pending int) {
	// Pass 0: freshen cascaded sources. A valid status here may have been
	// computed from another join's output whose own maintenance was
	// lazily logged (check sources, §3.2); reading only this join would
	// otherwise serve results the pending log entries invalidate. Ensure
	// source joins over their containing ranges first — their eager
	// updaters then propagate any late changes into this range before we
	// trust it. Base-table sources skip this entirely.
	if b, clip := ij.j.Out.ScanBinding(rr); !clip.Empty() {
		for _, src := range ij.j.Sources {
			table := src.Pat.Table()
			if len(e.outJoins[table]) == 0 {
				continue
			}
			cr := pattern.ContainingRange(src.Pat, ij.j.Out, b, rr)
			if cr.Empty() {
				continue
			}
			pending += e.ensureSourceJoins(table, cr, maxStale)
		}
	}

	// Pass 1: collect overlapping statuses; decide their fate.
	var overlapping []*JoinStatus
	// The only status that can straddle rr.Lo is the last one starting at
	// or before it; everything earlier ends before that one starts.
	start := ij.status.SeekAtOrBefore(rr.Lo)
	if start == nil {
		start = ij.status.Seek(rr.Lo)
	}
	for n := start; n != nil; n = n.Next() {
		st := n.Val
		if rr.Hi != "" && st.r.Lo >= rr.Hi {
			break
		}
		if st.r.Overlaps(rr) {
			overlapping = append(overlapping, st)
		}
	}

	now := e.now()
	var live []*JoinStatus
	for _, st := range overlapping {
		if st.valid && ij.j.Maint == join.Snapshot && !st.expires.IsZero() && now.After(st.expires) {
			e.invalidateStatus(st) // snapshot expired
			continue
		}
		if !st.valid && st.pendingLoads > 0 {
			// Restart context: data is still on the way; keep the status
			// so the retry recomputes it, report pending.
			pending += st.pendingLoads
			live = append(live, st) // occupies its range; not recomputed yet
			continue
		}
		if !st.valid {
			e.invalidateStatus(st)
			continue
		}
		if len(st.logs) > 0 {
			if maxStale > 0 && now.Sub(st.logs[0].at) <= maxStale {
				// Bounded read: the oldest unapplied log entry is within
				// budget. Serve the materialized rows as they stand and
				// leave the log for a fresh (or over-budget) read.
				e.stats.BoundedStaleServes++
			} else {
				e.applyLogs(st)
			}
			if st.pendingLoads > 0 {
				// A logged delta found its data missing and started loads:
				// the status now waits on them like a fresh execution.
				pending += st.pendingLoads
				live = append(live, st)
				continue
			}
		}
		if len(st.dirty) > 0 {
			pending += e.recomputeDirty(st, rr, maxStale, now)
		}
		e.lruTouch(st)
		live = append(live, st)
	}

	// Pass 2: fill gaps in rr not covered by surviving statuses. live is
	// sorted by range start (status tree order preserved the order).
	cursor := rr.Lo
	for _, st := range live {
		if st.r.Lo > cursor {
			gap := keys.Range{Lo: cursor, Hi: st.r.Lo}.Intersect(rr)
			if !gap.Empty() {
				pending += e.forwardExec(ij, gap)
			}
		}
		if keys.HiLess(cursor, st.r.Hi) {
			cursor = st.r.Hi
			if cursor == "" {
				break
			}
		}
	}
	if cursor != "" && (rr.Hi == "" || cursor < rr.Hi) {
		gap := keys.Range{Lo: cursor, Hi: rr.Hi}
		if !gap.Empty() {
			pending += e.forwardExec(ij, gap)
		}
	}
	return pending
}

// invalidateStatus completely invalidates a status range: outputs matching
// the join's pattern are removed, updater contexts uninstalled, and the
// status discarded so the next read recomputes from scratch (§3.2).
func (e *Engine) invalidateStatus(st *JoinStatus) {
	e.stats.Invalidations++
	e.detachStatus(st)
	e.removeOutputs(st.ij, st.r)
}

// detachStatus removes bookkeeping (status node, updater contexts, LRU)
// without touching output data.
func (e *Engine) detachStatus(st *JoinStatus) {
	if st.node != nil {
		st.ij.status.Delete(st.node)
		st.node = nil
	}
	for _, u := range st.updaters {
		u.removeContextsOf(st)
		if len(u.contexts) == 0 {
			e.dropUpdater(u)
		}
	}
	st.updaters = nil
	st.valid = false
	st.logs = nil
	st.dirty = nil
	e.lruRemove(st)
}

// recomputeDirty refreshes st's dirty sub-intervals overlapping rr: each
// over-budget span has its outputs removed and re-derived in place — the
// rest of the status's coverage stays untouched and warm. Spans within a
// positive maxStale budget are served as they stand and stay dirty for
// the next fresh read. Returns loads started.
func (e *Engine) recomputeDirty(st *JoinStatus, rr keys.Range, maxStale time.Duration, now time.Time) (pending int) {
	var redo []dirtySpan
	kept := st.dirty[:0]
	for _, d := range st.dirty {
		switch {
		case !d.r.Overlaps(rr):
			kept = append(kept, d)
		case maxStale > 0 && now.Sub(d.at) <= maxStale:
			// Within the read's staleness budget: serve the span's rows
			// stale (by at most maxStale) instead of recomputing.
			e.stats.BoundedStaleServes++
			kept = append(kept, d)
		default:
			redo = append(redo, d)
		}
	}
	st.dirty = kept
	for _, d := range redo {
		pending += e.recomputeSpan(st, d.r)
	}
	return pending
}

// recomputeSpan re-derives st's outputs inside r: the dirty-interval
// twin of forwardExec, executing into the *existing* status so its
// scanB-compressed updater contexts stay correct (installUpdater
// deduplicates re-installations). Missing base data leaves the status
// invalid with pending loads, exactly like a fresh forward execution.
func (e *Engine) recomputeSpan(st *JoinStatus, r keys.Range) (pending int) {
	e.stats.DirtyRecomputes++
	r = r.Intersect(st.r)
	if r.Empty() {
		return 0
	}
	e.removeOutputs(st.ij, r)
	b, clip := st.ij.j.Out.ScanBinding(r)
	if clip.Empty() {
		return 0 // nothing in the span can match the output pattern
	}
	ex := &exec{
		e:          e,
		ij:         st.ij,
		st:         st,
		clip:       r,
		installUpd: st.ij.j.Maint == join.Push,
		skipIdx:    -1,
	}
	if st.ij.j.IsAggregate() {
		ex.aggs = make(map[string]*aggState)
	}
	ex.run(0, b, nil)
	ex.flushAggs()
	if ex.missing > 0 {
		e.wait(st, ex.missing) // the retry recomputes the whole range
		return ex.missing
	}
	return 0
}

// removeOutputs deletes stored outputs of ij within r (only keys matching
// the join's output pattern — interleaved joins share ranges, §2.3) and
// invalidates dependent downstream joins rather than updating them, as
// eviction/invalidation semantics require (§2.5).
func (e *Engine) removeOutputs(ij *installedJoin, r keys.Range) {
	e.removeOutputsOp(ij, r, OpRemove)
}

// removeOutputsOp is removeOutputs notifying the given op: migration
// drops computed ranges with OpEvict, which subscription forwarding
// ignores — the data stays valid, it just stops being cached here.
func (e *Engine) removeOutputsOp(ij *installedJoin, r keys.Range, op ChangeOp) {
	var doomed []string
	e.s.Scan(r.Lo, r.Hi, func(k string, v *store.Value) bool {
		if _, ok := ij.j.Out.Match(k, st0); ok {
			doomed = append(doomed, k)
		}
		return true
	})
	for _, k := range doomed {
		old, ok := e.s.Remove(k)
		if !ok {
			continue
		}
		e.notify(Change{Op: op, Key: k, Value: old.String()})
		e.invalidateDependents(k)
	}
}

// st0 is the empty binding shared by read-only matches.
var st0 pattern.Binding

// invalidateDependents marks the computed sub-intervals depending on key
// dirty in every join status whose updaters cover it (transitive effects
// happen when those spans recompute). This is the range-granular
// replacement for whole-status invalidation: the affected output
// sub-interval is derived by projecting the source key through the
// join's key transform (the output pattern under the context's merged
// binding), so sibling coverage in the same status stays valid and warm.
// A context whose binding conflicts with the key is skipped outright —
// the key cannot contribute tuples through it.
func (e *Engine) invalidateDependents(key string) {
	ut := e.updaters[keys.Table(key)]
	if ut == nil {
		return
	}
	var hit []updCtx
	ut.Stab(key, func(en *interval.Entry[*Updater]) bool {
		hit = append(hit, en.Val.contexts...)
		return true
	})
	if len(hit) == 0 {
		return
	}
	now := e.now()
	for i := range hit {
		c := &hit[i]
		js := c.js
		if !js.valid {
			continue // recomputes wholesale anyway
		}
		src := js.ij.j.Sources[c.srcIdx]
		b2, ok := src.Pat.Match(key, mergeBinding(js.scanB, c.extra))
		if !ok {
			continue
		}
		e.markDirty(js, outAffectedRange(js.ij.j, b2, js.r), now)
	}
}

// outAffectedRange returns the sub-interval of clip that outputs
// depending on binding b can occupy: the output key itself when b
// determines it completely (for aggregates that complete key IS the
// group key, since source-only slots never appear in the output
// pattern), otherwise the range under the longest determined output
// prefix — the join's key transform applied to what is known. An
// unbound leading slot widens to the whole clip.
func outAffectedRange(j *join.Join, b pattern.Binding, clip keys.Range) keys.Range {
	if k, ok := j.Out.BuildKey(b); ok {
		return pattern.PointRange(k).Intersect(clip)
	}
	prefix, _ := j.Out.BuildPrefix(b)
	if prefix == "" {
		return clip
	}
	return keys.Range{Lo: prefix, Hi: keys.PrefixEnd(prefix)}.Intersect(clip)
}
