package core

import (
	"fmt"
	"sort"
	"testing"

	"pequod/internal/join"
	"pequod/internal/keys"
)

// sortedLoader serves loads from rows sorted by key, landing them in
// request order when drained.
type sortedLoader struct {
	e    *Engine
	rows []KV
	reqs []loadReq
}

func (l *sortedLoader) StartLoad(table string, r keys.Range) {
	l.reqs = append(l.reqs, loadReq{table, r})
}

func (l *sortedLoader) drain() {
	for len(l.reqs) > 0 {
		q := l.reqs[0]
		l.reqs = l.reqs[1:]
		i := sort.Search(len(l.rows), func(i int) bool { return l.rows[i].Key >= q.r.Lo })
		j := i
		for j < len(l.rows) && q.r.Contains(l.rows[j].Key) {
			j++
		}
		l.e.LoadComplete(q.table, q.r, l.rows[i:j])
	}
}

// BenchmarkLoadComplete costs one base-data load landing in a warm
// cache holding 1k or 10k join statuses, none of them waiting on it. A
// landed load releases only the statuses waiting on loads, so ns/op
// should not grow with the status count.
func BenchmarkLoadComplete(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("statuses=%dk", n/1000), func(b *testing.B) {
			e := New(Options{})
			if err := e.InstallText(timelineJoin); err != nil {
				b.Fatal(err)
			}
			e.Put("p|bob|100", "hello")
			for i := 0; i < n; i++ {
				u := fmt.Sprintf("u%05d", i)
				e.Put(keys.Join("s", u, "bob"), "1")
				if kvs, _ := e.Scan("t|"+u+"|", "t|"+u+"}", 0); len(kvs) != 1 {
					b.Fatalf("timeline %s: %v", u, kvs)
				}
			}
			l := &sortedLoader{e: e, rows: []KV{{"x|k", "v"}}}
			e.SetLoader(l, "x")
			if _, _, pending := e.Get("x|k"); pending != 1 || len(l.reqs) != 1 {
				b.Fatalf("load not started: pending %d", pending)
			}
			r := l.reqs[0].r
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.LoadComplete("x", r, l.rows)
			}
		})
	}
}

// BenchmarkColdTimelineRestart costs one cold timeline read end to end
// on a fresh engine: the subscriptions arrive in a first load round,
// the posts of the 20 followed posters in a second, and the retry
// materializes the 200-row timeline.
func BenchmarkColdTimelineRestart(b *testing.B) {
	const posters, posts = 20, 10
	var rows []KV
	for p := 0; p < posters; p++ {
		poster := fmt.Sprintf("a%02d", p)
		rows = append(rows, KV{keys.Join("s", "ann", poster), "1"})
		for t := 0; t < posts; t++ {
			rows = append(rows, KV{keys.Join("p", poster, fmt.Sprintf("%04d", t*posters+p)), "a post of moderate length"})
		}
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].Key < rows[k].Key })
	j, err := join.Parse(timelineJoin)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		if err := e.Install(j); err != nil {
			b.Fatal(err)
		}
		l := &sortedLoader{e: e, rows: rows}
		e.SetLoader(l, "s", "p")
		rounds := 0
		for {
			kvs, pending := e.Scan("t|ann|", "t|ann}", 0)
			if pending == 0 {
				if len(kvs) != posters*posts || rounds != 2 {
					b.Fatalf("%d rows after %d load rounds", len(kvs), rounds)
				}
				break
			}
			rounds++
			l.drain()
		}
	}
}
