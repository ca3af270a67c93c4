package main

import (
	"path/filepath"
	"testing"
	"time"

	"pequod/internal/twip"
)

func TestSeedDeterminesInputs(t *testing.T) {
	for _, sp := range specs {
		a := newInputs(sp, 7).digest(2000)
		if b := newInputs(sp, 7).digest(2000); a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", sp.Name, a, b)
		}
		if c := newInputs(sp, 8).digest(2000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", sp.Name, a)
		}
	}
}

func TestOpStreamShape(t *testing.T) {
	for _, sp := range specs {
		in := newInputs(sp, 3)
		g := newOpGen(in)
		tracked := make(map[int32]bool)
		for _, u := range in.tracked {
			tracked[u] = true
		}
		last := int64(sp.Prepop)
		for i := 0; i < 5000; i++ {
			o := g.next()
			switch o.kind {
			case twip.OpPost:
				if o.post.t <= last {
					t.Fatalf("%s: post time %d after %d", sp.Name, o.post.t, last)
				}
				last = o.post.t
			case twip.OpSubscribe:
				if tracked[o.user] {
					t.Fatalf("%s: tracked reader %d subscribed", sp.Name, o.user)
				}
			default:
				if o.bounded != (o.reader%2 == 1) {
					t.Fatalf("%s: reader %d bounded=%v", sp.Name, o.reader, o.bounded)
				}
			}
		}
	}
}

// tiny is a workload small enough to run end to end in a test.
var tiny = spec{
	Name: "tiny", Users: 2000, Follows: 4, Readers: 60, Prepop: 200, Warm: 30,
	Mix: twip.Mix{Login: 5, Check: 55, Subscribe: 20, Post: 20}, Rate: 800,
}

func TestRunEndToEnd(t *testing.T) {
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		res, err := run(tiny, 1, 3*time.Second, traced, filepath.Join(dir, "work"), dir)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(want) {
			t.Fatalf("traced=%v: result %+v", traced, res)
		}
	}
}

func TestFquantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15}} {
		if got := fquantile(xs, c.q); got != c.want {
			t.Errorf("fquantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("fquantile sorted its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}
