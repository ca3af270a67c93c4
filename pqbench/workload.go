package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/loadgen"
	"pequod/internal/twip"
)

// spec is one workload: the Twip universe it draws from, the data
// prepopulated before timing starts, the member configuration, and the
// open-loop arrival rate. Sizes are fixed here, not derived from the
// machine, so every run of a workload measures the same work.
type spec struct {
	Name string

	Users   int // universe size (ids that can post or be followed)
	Follows int // mean followee-set size
	Readers int // active reader pool issuing timeline reads
	Prepop  int // posts written before timing starts
	Warm    int // readers whose whole timeline is computed during set-up

	Mix  twip.Mix
	Rate float64 // open-loop arrivals per second

	// MemLimit is member 1's core.Options.MemLimit (0 = never evict).
	MemLimit int64
	// Durable members log every base write and snapshot on a timer.
	Durable   bool
	SyncEvery time.Duration
	SnapEvery time.Duration
}

const (
	tweetLen   = 100
	trackEvery = 8 // every 8th reader is shadowed by the checker
	// boundedBudget is the staleness budget carried by every read of an
	// odd-indexed reader; even-indexed readers read fresh.
	boundedBudget = 100 * time.Millisecond
	// checkerBudget is the absence grace for fresh reads: a post acked at
	// member 0 reaches member 1's timelines through the mesh
	// asynchronously.
	checkerBudget = time.Second
	// digestOps is the op-stream prefix folded into the printed digest.
	digestOps = 50_000
)

var specs = []spec{
	{
		Name:  "timeline-warm",
		Users: 100_000, Follows: 8, Readers: 1000, Prepop: 1500, Warm: 1000,
		Mix:  twip.Mix{Login: 5, Check: 85, Subscribe: 9, Post: 1},
		Rate: 800,
	},
	{
		Name:  "post-storm",
		Users: 100_000, Follows: 8, Readers: 500, Prepop: 2000, Warm: 500,
		Mix:     twip.Mix{Login: 0, Check: 30, Subscribe: 5, Post: 65},
		Rate:    250,
		Durable: true, SyncEvery: 10 * time.Millisecond, SnapEvery: 5 * time.Second,
	},
	{
		Name:  "cold-evict",
		Users: 100_000, Follows: 8, Readers: 3000, Prepop: 2000, Warm: 1000,
		Mix:      twip.Mix{Login: 5, Check: 75, Subscribe: 10, Post: 10},
		Rate:     250,
		MemLimit: 24 << 20,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// post is one post: author, logical time (unique across the run) and
// payload.
type post struct {
	poster int32
	t      int64
	text   string
}

func postKey(poster int32, t int64) string {
	return keys.Join("p", twip.UserID(poster), twip.TimeID(t))
}

func subKey(user, poster int32) string {
	return keys.Join("s", twip.UserID(user), twip.UserID(poster))
}

// timelineRange is reader user's timeline from time since on.
func timelineRange(user int32, since int64) (lo, hi string) {
	u := twip.UserID(user)
	return keys.Join("t", u, twip.TimeID(since)), keys.RangeEnd("t", u)
}

// inputs is everything the seed determines: the universe, the reader
// pool with its frozen followee sets, and the prepopulated rows. The
// program under test receives only these rows and the op stream.
type inputs struct {
	spec    spec
	seed    int64
	uni     *loadgen.Universe
	readers []int32
	tracked []int32
	subs    []core.KV
	posts   []post
	// footprint is the accounted size of every reader's whole timeline
	// (key plus tree-node overhead per row; payloads are shared with
	// the post rows), the working set cold-evict sizes MemLimit against.
	footprint int64
	// baseBytes sums key and value bytes of the prepopulated base rows.
	baseBytes int64
}

// timelineRowBytes is one timeline row's accounted size: the key plus
// the store's per-node overhead (values are shared with the post row).
const timelineRowBytes = len("t|u0000000|0000000000|u0000000") + 96

func newInputs(sp spec, seed int64) *inputs {
	in := &inputs{spec: sp, seed: seed, uni: loadgen.NewUniverse(int32(sp.Users), sp.Follows, seed)}
	postsBy := make(map[int32]int64)
	rng := rand.New(rand.NewSource(seed ^ 0x70726570))
	posters := in.uni.NewPosterSampler(rand.New(rand.NewSource(seed ^ 0x706f7374)))
	for t := int64(1); t <= int64(sp.Prepop); t++ {
		p := post{poster: posters.Sample(), t: t, text: twip.TweetBody(rng, tweetLen)}
		in.posts = append(in.posts, p)
		postsBy[p.poster]++
		in.baseBytes += int64(len(postKey(p.poster, p.t)) + len(p.text))
	}
	in.readers = make([]int32, sp.Readers)
	for i := range in.readers {
		u := in.uni.ActiveUser(i)
		in.readers[i] = u
		if i%trackEvery == 0 {
			in.tracked = append(in.tracked, u)
		}
		for _, f := range in.uni.Followees(u) {
			k := subKey(u, f)
			in.subs = append(in.subs, core.KV{Key: k, Value: "1"})
			in.baseBytes += int64(len(k) + 1)
			in.footprint += postsBy[f] * int64(timelineRowBytes)
		}
	}
	return in
}

// op is one generated operation. seq is its position in the stream and
// doubles as its trace id.
type op struct {
	seq     int64
	kind    twip.OpKind
	reader  int   // reader index (login, check, subscribe)
	user    int32 // reader id (login, check, subscribe)
	since   int64 // first timeline time a read covers
	target  int32 // subscription target
	post    post
	bounded bool
}

func (o *op) isRead() bool { return o.kind == twip.OpLogin || o.kind == twip.OpCheck }

// opGen draws the op stream. It depends on the seed alone: posts take
// logical times from their stream position and a check covers the
// reader's timeline from the stream position of its previous read, so
// neither depends on how fast the system answered.
type opGen struct {
	in       *inputs
	rng      *rand.Rand
	sampler  twip.OpSampler
	posters  *loadgen.PosterSampler
	seq      int64
	lastRead []int64
	tracked  map[int32]bool
}

func newOpGen(in *inputs) *opGen {
	g := &opGen{
		in:       in,
		rng:      rand.New(rand.NewSource(in.seed ^ 0x6f707321)),
		sampler:  twip.NewOpSampler(in.spec.Mix),
		posters:  in.uni.NewPosterSampler(rand.New(rand.NewSource(in.seed ^ 0x61757468))),
		lastRead: make([]int64, len(in.readers)),
		tracked:  make(map[int32]bool, len(in.tracked)),
	}
	// Readers warmed at set-up have read everything prepopulated.
	for i := 0; i < in.spec.Warm && i < len(g.lastRead); i++ {
		g.lastRead[i] = int64(in.spec.Prepop)
	}
	for _, u := range in.tracked {
		g.tracked[u] = true
	}
	return g
}

func (g *opGen) next() op {
	o := op{seq: g.seq, kind: g.sampler.Sample(g.rng)}
	now := int64(g.in.spec.Prepop) + g.seq // every post so far has t <= now
	g.seq++
	if o.kind == twip.OpPost {
		o.post = post{poster: g.posters.Sample(), t: now + 1, text: twip.TweetBody(g.rng, tweetLen)}
		return o
	}
	o.reader = g.rng.Intn(len(g.in.readers))
	if o.kind == twip.OpSubscribe {
		// The checker freezes tracked readers' followee sets, so
		// subscriptions come from untracked readers.
		for tries := 0; g.tracked[g.in.readers[o.reader]] && tries < 8; tries++ {
			o.reader = g.rng.Intn(len(g.in.readers))
		}
		if g.tracked[g.in.readers[o.reader]] {
			o.kind = twip.OpCheck
		} else {
			o.target = int32(g.rng.Intn(g.in.spec.Users))
		}
	}
	o.user = g.in.readers[o.reader]
	if o.isRead() {
		o.bounded = o.reader%2 == 1
		if o.kind == twip.OpCheck {
			o.since = g.lastRead[o.reader]
		}
		g.lastRead[o.reader] = now
	}
	return o
}

// digest fingerprints the prepopulated rows and the first n ops of the
// stream.
func (in *inputs) digest(n int) string {
	h := sha256.New()
	var b [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putStr := func(s string) {
		putInt(int64(len(s)))
		h.Write([]byte(s))
	}
	putStr(in.spec.Name)
	for _, kv := range in.subs {
		putStr(kv.Key)
		putStr(kv.Value)
	}
	for _, p := range in.posts {
		putStr(postKey(p.poster, p.t))
		putStr(p.text)
	}
	g := newOpGen(in)
	for i := 0; i < n; i++ {
		o := g.next()
		putInt(int64(o.kind))
		putInt(int64(o.user))
		putInt(o.since)
		putInt(int64(o.target))
		putStr(postKey(o.post.poster, o.post.t))
		putStr(o.post.text)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (sp spec) describe() string {
	s := fmt.Sprintf("users=%d follows=%d readers=%d prepop_posts=%d warm_readers=%d mix=%d:%d:%d:%d rate=%.0f/s",
		sp.Users, sp.Follows, sp.Readers, sp.Prepop, sp.Warm,
		sp.Mix.Login, sp.Mix.Check, sp.Mix.Subscribe, sp.Mix.Post, sp.Rate)
	if sp.Durable {
		s += fmt.Sprintf(" durable(sync=%v snapshot=%v)", sp.SyncEvery, sp.SnapEvery)
	} else {
		s += " in-memory"
	}
	return s
}
