package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pequod/internal/client"
	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/server"
	"pequod/internal/twip"
)

// deployment is one in-process two-member cluster: member 0 owns the
// base tables (p|, s|), member 1 owns the computed timelines (t|), and
// each range keeps the default two copies, so every post crosses the
// mesh and the client holds one connection per member.
type deployment struct {
	servers []*server.Server
	addrs   []string
	cl      *cluster.Cluster
	stat    []*client.Client // one statistics connection per member
	dir     string           // durable data root ("" = in-memory)
}

// deploy starts the members, installs the Twip join, writes the
// prepopulated rows and computes the warm readers' timelines. dataDir
// roots the durable members' directories.
func deploy(ctx context.Context, in *inputs, dataDir string) (d *deployment, err error) {
	sp := in.spec
	d = &deployment{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if sp.Durable {
		d.dir = dataDir
	}
	for i := 0; i < 2; i++ {
		cfg := server.Config{Name: fmt.Sprintf("m%d", i)}
		if i == 1 {
			cfg.Engine.MemLimit = sp.MemLimit
		}
		if d.dir != "" {
			cfg.DataDir = filepath.Join(d.dir, cfg.Name)
			if err := os.MkdirAll(cfg.DataDir, 0o777); err != nil {
				return d, err
			}
			cfg.SyncInterval = sp.SyncEvery
			cfg.SnapshotInterval = sp.SnapEvery
			cfg.ScrubInterval = -1
			cfg.CompactInterval = -1
		}
		s, err := server.New(cfg)
		if err != nil {
			return d, err
		}
		addr, err := s.Start()
		if err != nil {
			s.Close()
			return d, err
		}
		d.servers = append(d.servers, s)
		d.addrs = append(d.addrs, addr)
	}
	d.cl, err = cluster.New(ctx, cluster.Config{
		Addrs:           d.addrs,
		Bounds:          []string{"t|"},
		Joins:           twip.Joins,
		CoordinatorName: "pqbench",
	})
	if err != nil {
		return d, err
	}
	for _, a := range d.addrs {
		c, err := client.DialContext(ctx, a)
		if err != nil {
			return d, err
		}
		d.stat = append(d.stat, c)
	}
	rows := make([]core.KV, 0, len(in.subs)+len(in.posts))
	rows = append(rows, in.subs...)
	for _, p := range in.posts {
		rows = append(rows, core.KV{Key: postKey(p.poster, p.t), Value: p.text})
	}
	for len(rows) > 0 {
		n := min(len(rows), 1024)
		if err := d.cl.PutBatch(ctx, rows[:n]); err != nil {
			return d, fmt.Errorf("prepopulate: %w", err)
		}
		rows = rows[n:]
	}
	if err := d.cl.Quiesce(ctx); err != nil {
		return d, err
	}
	if err := d.warm(ctx, in.readers[:sp.Warm]); err != nil {
		return d, fmt.Errorf("warm-up: %w", err)
	}
	return d, d.cl.Quiesce(ctx)
}

// warm computes the readers' whole timelines with two concurrent
// callers.
func (d *deployment) warm(ctx context.Context, readers []int32) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(readers); i += len(errs) {
				lo, hi := timelineRange(readers[i], 0)
				if _, err := d.cl.Scan(ctx, lo, hi, 0); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshots fetches every member's statistics.
func (d *deployment) snapshots(ctx context.Context) ([]*client.StatSnapshot, error) {
	out := make([]*client.StatSnapshot, len(d.stat))
	for i, c := range d.stat {
		s, err := c.StatSnapshot(ctx)
		if err != nil {
			return nil, fmt.Errorf("stat %s: %w", d.addrs[i], err)
		}
		out[i] = s
	}
	return out, nil
}

// close stops every member and removes the durable data.
func (d *deployment) close() {
	if d.cl != nil {
		d.cl.Close()
	}
	for _, c := range d.stat {
		c.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
