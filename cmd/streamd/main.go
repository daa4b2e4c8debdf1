// Command streamd is the simulation-as-a-service daemon: an HTTP JSON server
// that accepts cmd/streamsim-shaped simulation requests, executes them on a
// bounded worker pool with per-request fault isolation, and serves repeated
// configurations from a content-addressed result cache.
//
// Usage:
//
//	streamd -addr :8080
//	streamd -addr :8080 -checkpoint results.d     # durable cache, survives restarts
//	streamd -workers 4 -queue 32 -job-timeout 2m  # bounded pool + backpressure
//
//	curl -d '{"workload":"sphinx06","temporal":"streamline"}' localhost:8080/simulate
//	curl localhost:8080/statusz
//
// Endpoints: POST /simulate, GET /healthz, GET /statusz. Identical concurrent
// requests are single-flighted; a full queue answers 429 with Retry-After;
// SIGTERM/SIGINT drain gracefully (stop accepting, finish and persist
// in-flight simulations, then exit 0).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamline/internal/exp/store"
	"streamline/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0: GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "max admitted-unfinished computations before 429 (0: 4x workers)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-request simulation bound; exceeded requests answer 504 (0: unbounded)")
		cacheEntries = flag.Int("cache-entries", 256, "in-memory LRU capacity (response bodies)")
		maxBody      = flag.Int64("max-body", 1<<20, "request body cap in bytes")
		checkpoint   = flag.String("checkpoint", "", "durable result store directory (created if needed; same record format as experiments -checkpoint)")
		drainWait    = flag.Duration("drain-timeout", time.Minute, "how long a SIGTERM drain waits for in-flight simulations")
		accessOut    = flag.String("access-log", "", "write one structured JSONL record per request to this file")
		slowReq      = flag.Duration("slow-request", 0, "requests at or over this wall clock carry their full stage breakdown in the access log (0: never)")
	)
	flag.Parse()

	var st *store.Store
	if *checkpoint != "" {
		var err error
		st, err = store.Create(*checkpoint, serve.ServiceManifest())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "streamd: store %s holds %d result(s) (%d quarantined)\n",
			st.Dir(), st.Loaded(), st.Quarantined())
	}

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		MaxBodyBytes: *maxBody,
		CacheEntries: *cacheEntries,
		Store:        st,
		SlowRequest:  *slowReq,
	}
	// bufio.Writer keeps its first error, so the exit flush reports any
	// record the log failed to take.
	var accessFile *os.File
	var accessLog *bufio.Writer
	if *accessOut != "" {
		f, err := os.Create(*accessOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		accessFile, accessLog = f, bufio.NewWriter(f)
		cfg.AccessLog = accessLog
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The resolved address line is load-bearing: tests (and scripts) listen
	// on :0 and parse the chosen port from it.
	fmt.Fprintf(os.Stderr, "streamd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	shutdown := make(chan struct{})
	go func() {
		defer close(shutdown)
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "streamd: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		hs.Shutdown(ctx)
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Shutdown returned: connections are done, but detached computations may
	// still be persisting — wait for them so every served result is durable.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "streamd: drain: %v\n", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "streamd: store: %v\n", err)
			os.Exit(1)
		}
	}
	if accessLog != nil {
		// Serve returned when Shutdown began; Shutdown itself returns once
		// every handler has written its record (or at the drain deadline).
		<-shutdown
		if err := errors.Join(accessLog.Flush(), accessFile.Close()); err != nil {
			fmt.Fprintf(os.Stderr, "streamd: access log: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, "streamd: drained, bye")
}
