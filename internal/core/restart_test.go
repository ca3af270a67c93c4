package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pequod/internal/keys"
)

// Restart contexts (§3.3): a join that finds base data missing starts
// the fetches, waits on the engine's waiter list, and is released by the
// next landed or failed load.

func newLoaderTwip(t testing.TB, opts Options, db map[string]string) (*Engine, *fakeLoader) {
	t.Helper()
	e := New(opts)
	l := &fakeLoader{e: e, data: db}
	e.SetLoader(l, "s", "p")
	if err := e.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	return e, l
}

// waitingStatuses walks every join status for the ones holding restart
// contexts.
func waitingStatuses(e *Engine) map[*JoinStatus]bool {
	out := map[*JoinStatus]bool{}
	for _, ij := range e.joins {
		for n := ij.status.First(); n != nil; n = n.Next() {
			if n.Val.pendingLoads > 0 {
				out[n.Val] = true
			}
		}
	}
	return out
}

// checkWaiters asserts that the waiter list holds every attached status
// with pending loads, and that its attached entries are exactly those.
func checkWaiters(t *testing.T, step int, e *Engine) {
	t.Helper()
	want := waitingStatuses(e)
	got := map[*JoinStatus]bool{}
	for _, st := range e.waiters {
		if st.node == nil {
			continue
		}
		if got[st] {
			t.Fatalf("step %d: status %v listed twice", step, st.r)
		}
		got[st] = true
		if !want[st] {
			t.Fatalf("step %d: listed status %v has no pending loads", step, st.r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("step %d: waiter list holds %d attached statuses, walk finds %d", step, len(got), len(want))
	}
}

func TestLoadFailedRestartsJoin(t *testing.T) {
	e, l := newLoaderTwip(t, Options{}, map[string]string{
		"s|ann|bob": "1",
		"p|bob|100": "hello",
	})
	if _, pending := e.Scan("t|ann|", "t|ann}", 0); pending == 0 {
		t.Fatal("cold scan should wait on the subscription load")
	}
	if len(l.reqs) != 1 || l.reqs[0].table != "s" {
		t.Fatalf("loads started: %v", l.reqs)
	}
	l.fail(0)

	// The failed load released the join: the retry starts a new load
	// instead of waiting on one that will never land.
	loads := l.loads
	if _, pending := e.Scan("t|ann|", "t|ann}", 0); pending == 0 {
		t.Fatal("retry should wait on a new load")
	}
	if l.loads != loads+1 || len(l.reqs) != 1 || l.reqs[0].table != "s" {
		t.Fatalf("retry started %d loads (outstanding %v), want one subscription load", l.loads-loads, l.reqs)
	}
	compareKVs(t, 0, scanUntilDone(t, e, l, "t|ann|", "t|ann}"), []KV{{"t|ann|100|bob", "hello"}})
	if len(e.waiters) != 0 {
		t.Fatalf("waiter list not empty: %d", len(e.waiters))
	}
}

func TestLoadRestartsCount(t *testing.T) {
	e, l := newLoaderTwip(t, Options{}, map[string]string{
		"s|ann|bob": "1",
		"s|ann|liz": "1",
		"p|bob|100": "hello",
		"p|liz|150": "world",
	})
	// Round 1 waits on the subscriptions; round 2 on two post ranges.
	// Each round's first landed load releases the timeline's status once;
	// the second post load finds the list empty.
	for round, wantLoads := range []int{1, 2} {
		if _, pending := e.Scan("t|ann|", "t|ann}", 0); pending != wantLoads {
			t.Fatalf("round %d: pending = %d, want %d", round+1, pending, wantLoads)
		}
		l.drain()
	}
	kvs, pending := e.Scan("t|ann|", "t|ann}", 0)
	if pending != 0 || len(kvs) != 2 {
		t.Fatalf("after two rounds: %d rows, pending %d", len(kvs), pending)
	}
	if got := e.Stats().LoadRestarts; got != 2 {
		t.Fatalf("LoadRestarts = %d, want 2", got)
	}
	var sum Stats
	sum.Add(e.Stats())
	sum.Add(e.Stats())
	if sum.LoadRestarts != 4 {
		t.Fatalf("Stats.Add: LoadRestarts = %d, want 4", sum.LoadRestarts)
	}
}

// A timeline whose first poster's posts are missing while the second's
// are resident is materialized once, after the load: the execution that
// found the missing range emits nothing it would later have to delete.
func TestColdTimelineMaterializesOnce(t *testing.T) {
	e, l := newLoaderTwip(t, Options{}, map[string]string{
		"s|ann|amy": "1",
		"s|ann|bob": "1",
		"s|cat|bob": "1",
		"p|amy|100": "a",
		"p|bob|200": "b",
	})
	// Another reader's timeline makes bob's posts resident.
	scanUntilDone(t, e, l, "t|cat|", "t|cat}")

	var puts, removes int
	e.SetChangeHook(func(c Change) {
		if strings.HasPrefix(c.Key, "t|ann|") {
			if c.Op == OpPut {
				puts++
			} else {
				removes++
			}
		}
	})
	for round := 0; ; round++ {
		kvs, pending := e.Scan("t|ann|", "t|ann}", 0)
		if pending == 0 {
			compareKVs(t, round, kvs, []KV{{"t|ann|100|amy", "a"}, {"t|ann|200|bob", "b"}})
			break
		}
		if n := e.Store().CountRange("t|ann|", "t|ann}"); n != 0 {
			t.Fatalf("round %d: waiting execution left %d outputs", round, n)
		}
		if round > 3 {
			t.Fatalf("timeline still pending after %d rounds", round)
		}
		l.drain()
	}
	if puts != 2 || removes != 0 {
		t.Fatalf("timeline rows: %d puts, %d removes; want 2 puts, 0 removes", puts, removes)
	}
}

// restartJoins are the joins the restart-context property runs: the
// timeline join, and an aggregate through a check source, whose check
// deltas fall back to dirty-span recomputes.
const restartJoins = timelineJoin + "\nn|<user> = check s|<user>|<poster> count p|<poster>|<time>"

// fromScratch builds a loader-free engine holding exactly db.
func fromScratch(t *testing.T, db map[string]string) *Engine {
	t.Helper()
	e := New(Options{})
	if err := e.InstallText(restartJoins); err != nil {
		t.Fatal(err)
	}
	for k, v := range db {
		e.Put(k, v)
	}
	return e
}

// scanUntilDone retries a scan, landing every load in between, until it
// reports no pending loads.
func scanUntilDone(t *testing.T, e *Engine, l *fakeLoader, lo, hi string) []KV {
	t.Helper()
	for round := 0; round < 10; round++ {
		kvs, pending := e.Scan(lo, hi, 0)
		if pending == 0 {
			return kvs
		}
		l.drain()
	}
	t.Fatalf("scan [%s, %s) still pending after 10 load rounds", lo, hi)
	return nil
}

// TestRestartContextEquivalence is the restart-context property: base
// writes interleave with loads that complete late, out of order or fail,
// under a memory limit small enough to evict, and every read that
// reports no pending loads — and, after draining, every timeline — is
// byte-identical to a from-scratch engine over the same base data. The
// waiter list must match the statuses holding restart contexts
// throughout, and be empty at the end.
func TestRestartContextEquivalence(t *testing.T) {
	var total Stats
	failures := 0
	for seed := int64(1); seed <= restartSeeds; seed++ {
		st, nf := runRestartSoak(t, seed, restartSteps)
		total.Add(st)
		failures += nf
	}
	// The property only means something if every mechanism ran.
	if total.LoadsStarted == 0 || total.LoadRestarts == 0 || total.Evictions == 0 || failures == 0 || total.DirtyRecomputes == 0 {
		t.Fatalf("soak exercised too little: loads %d, restarts %d, evictions %d, failed loads %d, dirty recomputes %d",
			total.LoadsStarted, total.LoadRestarts, total.Evictions, failures, total.DirtyRecomputes)
	}
	t.Logf("loads %d, restarts %d, evictions %d, failed loads %d, dirty recomputes %d",
		total.LoadsStarted, total.LoadRestarts, total.Evictions, failures, total.DirtyRecomputes)
}

// caches reports whether the engine holds key or a presence record
// (resident or still loading) covering it.
func caches(e *Engine, key string) bool {
	if _, ok := e.s.Get(key); ok {
		return true
	}
	n := e.presence[keys.Table(key)].ranges.SeekAtOrBefore(key)
	return n != nil && n.Val.r.Contains(key)
}

// Soak sizes: a read's working set — one user's subscriptions, the posts
// of at most restartFollows posters and the timeline they yield — fits
// in the memory limit, so every read can finish, while all users'
// timelines together overflow it, so reads evict each other's ranges.
const (
	restartUsers    = 10
	restartFollows  = 3
	restartPostTime = 12 // post times per poster
	restartMemLimit = 16 * 1024
	restartSeeds    = 12
	restartSteps    = 400
)

func runRestartSoak(t *testing.T, seed int64, steps int) (Stats, int) {
	rng := rand.New(rand.NewSource(seed))
	db := map[string]string{}
	var users, posters []string
	for i := 0; i < restartUsers; i++ {
		users = append(users, fmt.Sprintf("u%d", i))
		posters = append(posters, fmt.Sprintf("a%d", i))
	}
	follows := func(u string) int {
		n := 0
		for _, p := range posters {
			if _, ok := db[keys.Join("s", u, p)]; ok {
				n++
			}
		}
		return n
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	postKey := func() string { return keys.Join("p", pick(posters), fmt.Sprintf("%03d", rng.Intn(restartPostTime))) }
	for _, u := range users {
		for i := rng.Intn(restartFollows + 1); i > 0; i-- {
			db[keys.Join("s", u, pick(posters))] = "1"
		}
	}
	for i := 0; i < 4*len(posters); i++ {
		db[postKey()] = strings.Repeat("x", 20+rng.Intn(40))
	}

	e := New(Options{MemLimit: restartMemLimit})
	l := &fakeLoader{e: e, data: db}
	e.SetLoader(l, "s", "p")
	if err := e.InstallText(restartJoins); err != nil {
		t.Fatal(err)
	}
	// Base writes go to the database, and reach the cache only for keys
	// it holds or ranges it holds or is fetching — as a write-around
	// cache is told of writes to what it caches. Everything else is
	// fetched fresh.
	put := func(k, v string) {
		db[k] = v
		if caches(e, k) {
			e.Put(k, v)
		}
	}
	remove := func(k string) {
		delete(db, k)
		if caches(e, k) {
			e.Remove(k)
		}
	}
	failures := 0

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(20); {
		case r < 4: // subscribe, or unsubscribe a user at the cap
			u := pick(users)
			if k := keys.Join("s", u, pick(posters)); follows(u) < restartFollows {
				put(k, "1")
			} else {
				remove(k)
			}
		case r < 7: // post or overwrite
			put(postKey(), fmt.Sprintf("v%d-%s", step, strings.Repeat("y", rng.Intn(30))))
		case r < 8: // delete a post
			remove(postKey())
		case r < 11: // land a random outstanding load: late and out of order
			if len(l.reqs) > 0 {
				l.complete(rng.Intn(len(l.reqs)))
			}
		case r < 12: // fail one
			if len(l.reqs) > 0 {
				l.fail(rng.Intn(len(l.reqs)))
				failures++
			}
		default: // read; its loads stay outstanding until a later step
			var lo, hi string
			switch rng.Intn(5) {
			case 0:
				lo, hi = "n|", "n}"
			case 1:
				lo, hi = "t|"+pick(users), "t|"+pick(users)
				if hi < lo {
					lo, hi = hi, lo
				}
			default:
				u := pick(users)
				lo, hi = "t|"+u+"|", "t|"+u+"}"
			}
			if got, pending := e.Scan(lo, hi, 0); pending == 0 {
				want, _ := fromScratch(t, db).Scan(lo, hi, 0)
				compareKVs(t, step, got, want)
			}
		}
		checkWaiters(t, step, e)
	}

	// Drain: every timeline and every aggregate, read to completion.
	ref := fromScratch(t, db)
	for _, u := range users {
		for _, r := range []keys.Range{{Lo: "t|" + u + "|", Hi: "t|" + u + "}"}, {Lo: "n|" + u, Hi: "n|" + u + "\x00"}} {
			want, _ := ref.Scan(r.Lo, r.Hi, 0)
			compareKVs(t, steps, scanUntilDone(t, e, l, r.Lo, r.Hi), want)
		}
	}
	checkWaiters(t, steps, e)
	if len(l.reqs) != 0 || len(e.waiters) != 0 {
		t.Fatalf("seed %d: after draining %d loads outstanding, %d waiters listed", seed, len(l.reqs), len(e.waiters))
	}
	return e.Stats(), failures
}

// A lazily logged subscription whose poster's posts are not resident
// makes the delta join start a load; the read applying the log must
// report it pending instead of serving the timeline without the posts.
func TestLoggedDeltaWaitsOnMissingData(t *testing.T) {
	db := map[string]string{"p|bob|100": "hello"}
	e, l := newLoaderTwip(t, Options{}, db)
	if kvs := scanUntilDone(t, e, l, "t|ann|", "t|ann}"); len(kvs) != 0 {
		t.Fatalf("timeline before subscribing: %v", kvs)
	}
	db["s|ann|bob"] = "1"
	e.Put("s|ann|bob", "1")
	if kvs, pending := e.Scan("t|ann|", "t|ann}", 0); pending == 0 {
		t.Fatalf("delta join's post load not reported: served %v", kvs)
	}
	compareKVs(t, 0, scanUntilDone(t, e, l, "t|ann|", "t|ann}"), []KV{{"t|ann|100|bob", "hello"}})
}
