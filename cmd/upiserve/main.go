// Command upiserve serves a upidb database over HTTP — the network
// front end of the engine. It creates (or opens) a
// database, attaches the requested tables, optionally preloads
// synthetic data, and serves the internal/server API with
// token-bucket admission and graceful drain on SIGTERM/SIGINT.
//
// Examples:
//
//	# In-memory database, one sharded table, 10k synthetic tuples:
//	upiserve -addr :8080 -table authors:X:Y -shards 4 -preload 10000
//
//	# Durable database on disk; reopen it later with -open:
//	upiserve -dir /var/data/upi -table authors:X:Y
//	upiserve -dir /var/data/upi -table authors:X:Y -open
//
// The -table flag repeats; its value is "name:primary" or
// "name:primary:sec1;sec2". -shards must be at least 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"upidb"
	"upidb/internal/server"
)

// tableSpec is one -table flag value, parsed.
type tableSpec struct {
	name      string
	primary   string
	secondary []string
}

func parseTableSpec(v string) (tableSpec, error) {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return tableSpec{}, fmt.Errorf("bad -table %q: want name:primary[:sec1;sec2]", v)
	}
	spec := tableSpec{name: parts[0], primary: parts[1]}
	if len(parts) == 3 && parts[2] != "" {
		spec.secondary = strings.Split(parts[2], ";")
	}
	return spec, nil
}

// preload fills a table with synthetic tuples matching the schema the
// loadgen (cmd/upiload) drives: uncertain primary with two
// alternatives over a small value pool, one-alternative secondaries.
func preload(t *upidb.Table, n int) error {
	primary := t.PrimaryAttr()
	secondary := t.SecondaryAttrs()
	for i := 0; i < n; i++ {
		tup := &upidb.Tuple{ID: uint64(i + 1), Existence: 1}
		main, err := upidb.NewDiscrete([]upidb.Alternative{
			{Value: fmt.Sprintf("v%d", i%16), Prob: 0.7},
			{Value: fmt.Sprintf("v%d", (i+5)%16), Prob: 0.3},
		})
		if err != nil {
			return err
		}
		tup.Unc = append(tup.Unc, upidb.UncField{Name: primary, Dist: main})
		for _, sec := range secondary {
			d, err := upidb.NewDiscrete([]upidb.Alternative{
				{Value: fmt.Sprintf("w%d", i%8), Prob: 1},
			})
			if err != nil {
				return err
			}
			tup.Unc = append(tup.Unc, upidb.UncField{Name: sec, Dist: d})
		}
		if err := t.Insert(tup); err != nil {
			return err
		}
	}
	// Flush + merge so the preload lives in a compact main partition.
	if err := t.Flush(); err != nil {
		return err
	}
	return t.Merge()
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dir         = flag.String("dir", "", "database directory (empty = in-memory)")
		open        = flag.Bool("open", false, "open an existing database instead of creating one")
		shards      = flag.Int("shards", 1, "shards per table (at least 1)")
		maxInflight = flag.Int("max-inflight", 64, "max concurrently served requests (excess gets 429)")
		timeout     = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
		preloadN    = flag.Int("preload", 0, "synthetic tuples to preload per table")
		quiet       = flag.Bool("quiet", false, "disable per-request logging")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator-only; off by default)")
	)
	var specs []tableSpec
	flag.Func("table", "table spec name:primary[:sec1;sec2] (repeatable)", func(v string) error {
		spec, err := parseTableSpec(v)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		return nil
	})
	flag.Parse()
	if len(specs) == 0 {
		log.Fatal("at least one -table is required")
	}
	nShards := *shards
	if nShards < 1 {
		log.Fatalf("-shards %d: a table needs at least 1 shard", nShards)
	}

	var (
		db  *upidb.DB
		err error
	)
	if *open {
		db, err = upidb.Open(*dir)
	} else {
		db, err = upidb.Create(*dir)
	}
	if err != nil {
		log.Fatalf("database: %v", err)
	}

	for _, spec := range specs {
		var t *upidb.Table
		if *open {
			t, err = db.OpenTable(spec.name, spec.primary, spec.secondary)
		} else {
			t, err = db.CreateTable(spec.name, spec.primary, spec.secondary, upidb.WithShards(nShards))
		}
		if err != nil {
			log.Fatalf("table %s: %v", spec.name, err)
		}
		if *preloadN > 0 && !*open {
			start := time.Now()
			if err := preload(t, *preloadN); err != nil {
				log.Fatalf("preload %s: %v", spec.name, err)
			}
			log.Printf("preloaded %s: %d tuples across %d shards in %v",
				spec.name, *preloadN, t.NumShards(), time.Since(start).Round(time.Millisecond))
		}
	}

	cfg := server.Config{MaxInflight: *maxInflight, DefaultTimeout: *timeout, EnablePprof: *pprofOn}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv := server.New(db, cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("upiserve listening on %s (max-inflight %d, shards %d)", *addr, *maxInflight, nShards)

	select {
	case <-ctx.Done():
		// Graceful drain: refuse new work, let the listener finish
		// in-flight connections, wait for handlers, then close the DB so
		// durable tables checkpoint cleanly.
		log.Printf("signal received; draining")
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		srv.Drain()
		if err := db.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
		log.Printf("drained; bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			_ = db.Close()
			log.Fatalf("serve: %v", err)
		}
	}
	os.Exit(0)
}
