package core

import (
	"pequod/internal/keys"
	"pequod/internal/rbtree"
	"pequod/internal/store"
)

// presenceTable tracks which ranges of a loader-backed base table are
// resident in the cache (§3.3: "the data is loaded and metadata is
// installed to indicate its presence").
type presenceTable struct {
	// ranges holds disjoint presence records keyed by range start.
	ranges rbtree.Tree[*presRange]
}

func newPresenceTable() *presenceTable { return &presenceTable{} }

// presRange is one resident (or in-flight) base range.
type presRange struct {
	table   string
	r       keys.Range
	loading bool
	node    *rbtree.Node[*presRange]
	lru     lruEntry
}

// ensurePresent checks residency of cr and starts asynchronous loads for
// the gaps. It returns the number of ranges still in flight (both newly
// started and previously outstanding) — the query's restart contexts.
func (e *Engine) ensurePresent(table string, pt *presenceTable, cr keys.Range) (pending int) {
	// Walk overlapping presence records, accumulating gaps.
	var overlapping []*presRange
	start := pt.ranges.SeekBefore(cr.Lo + "\x00")
	if start == nil {
		start = pt.ranges.Seek(cr.Lo)
	}
	for n := start; n != nil; n = n.Next() {
		pr := n.Val
		if cr.Hi != "" && pr.r.Lo >= cr.Hi {
			break
		}
		if pr.r.Overlaps(cr) {
			overlapping = append(overlapping, pr)
		}
	}
	cursor := cr.Lo
	startLoad := func(gap keys.Range) {
		if gap.Empty() {
			return
		}
		pr := &presRange{table: table, r: gap, loading: true}
		n, _ := pt.ranges.Insert(gap.Lo, pr)
		n.Val = pr
		pr.node = n
		e.stats.LoadsStarted++
		pending++
		e.loader.StartLoad(table, gap)
	}
	for _, pr := range overlapping {
		if pr.r.Lo > cursor {
			startLoad(keys.Range{Lo: cursor, Hi: pr.r.Lo}.Intersect(cr))
		}
		if pr.loading {
			pending++
		} else {
			e.lruTouch2(&pr.lru, pr)
		}
		if keys.HiLess(cursor, pr.r.Hi) {
			cursor = pr.r.Hi
			if cursor == "" {
				break
			}
		}
	}
	if cursor != "" && (cr.Hi == "" || cursor < cr.Hi) {
		startLoad(keys.Range{Lo: cursor, Hi: cr.Hi})
	}
	return pending
}

// LoadComplete delivers the result of a BaseLoader.StartLoad: the fetched
// pairs are installed (running maintenance like any other base write) and
// the range is marked resident. Must be called from the engine's driving
// goroutine. The waiting restart contexts are released (see
// releaseWaiters), so queries whose contexts reference this range succeed
// on their next execution (§3.3: "the restarted query behaves as if
// executed from scratch", and completed parts are simply re-used because
// their join status ranges remained valid).
func (e *Engine) LoadComplete(table string, r keys.Range, kvs []KV) {
	pt := e.presence[table]
	if pt == nil {
		return
	}
	for _, kv := range kvs {
		e.applyValue(kv.Key, store.NewValue(kv.Value), nil)
	}
	if n := pt.ranges.Find(r.Lo); n != nil && n.Val.r == r {
		pr := n.Val
		pr.loading = false
		e.lruTouch2(&pr.lru, pr)
	}
	e.releaseWaiters()
	e.loadGen++
}

// LoadFailed abandons a StartLoad that could not be satisfied (the
// remote owner refused — e.g. the range migrated away mid-fetch — or the
// transport died): the loading record is dropped so nothing is falsely
// marked resident, the waiting restart contexts are released, and the
// load generation advances so blocked readers retry, which restarts the
// load — by then against a refreshed owner map. Must be called from the
// engine's driving goroutine, like LoadComplete.
func (e *Engine) LoadFailed(table string, r keys.Range) {
	pt := e.presence[table]
	if pt == nil {
		return
	}
	if n := pt.ranges.Find(r.Lo); n != nil && n.Val.r == r && n.Val.loading {
		pt.ranges.Delete(n)
		n.Val.node = nil
	}
	e.releaseWaiters()
	e.loadGen++
}

// wait records n more in-flight loads on st's restart context and
// leaves st invalid, so the retry after they land recomputes it. A
// status enters the waiter list when it starts waiting.
func (e *Engine) wait(st *JoinStatus, n int) {
	if st.pendingLoads == 0 {
		e.waiters = append(e.waiters, st)
	}
	st.pendingLoads += n
	st.valid = false
}

// releaseWaiters clears every restart context once a load lands or
// fails: each waiting status stays invalid with no pending count, so
// the next read recomputes it, and re-enlists it if some of its loads
// are still in flight. Statuses detached while waiting (node == nil)
// are gone from their join and are skipped. A landed load thus costs
// O(waiters), however many statuses the cache holds.
func (e *Engine) releaseWaiters() {
	for i, st := range e.waiters {
		if st.node != nil {
			st.pendingLoads = 0
			st.valid = false
			e.stats.LoadRestarts++
		}
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
}

// evictPresence drops a resident base range under memory pressure: its
// keys are removed (with OpEvict, which subscription forwarding ignores)
// and dependent computed ranges are invalidated (§2.5).
func (e *Engine) evictPresence(pr *presRange) {
	pt := e.presence[pr.table]
	if pt == nil || pr.node == nil {
		return
	}
	pt.ranges.Delete(pr.node)
	pr.node = nil
	var doomed []string
	e.s.Scan(pr.r.Lo, pr.r.Hi, func(k string, v *store.Value) bool {
		doomed = append(doomed, k)
		return true
	})
	for _, k := range doomed {
		old, ok := e.s.Remove(k)
		if !ok {
			continue
		}
		e.notify(Change{Op: OpEvict, Key: k, Value: old.String()})
		e.invalidateDependents(k)
	}
}
