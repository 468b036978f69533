// Command elpd serves the elp2im accelerator over HTTP: a named
// bit-vector store (plain and vertical bit-sliced vectors) plus single
// ops, reductions, expression evaluation, vertical k-bit arithmetic, and
// bitmap-index queries (POST /v1/query: boolean predicates over the
// "<namespace>/<index>" vectors, answering counts, match bitvectors or
// paginated set-bit positions). Every request executes synchronously on
// the goroutine that decoded it, behind internal/server's per-shard
// admission gate (a bound on requests in flight with 503 backpressure,
// per-request deadlines, graceful drain on SIGTERM).
//
// Usage:
//
//	elpd [flags]
//	  -addr string          listen address (default "127.0.0.1:8372"; use :0 for ephemeral)
//	  -wire-addr string     optional second listener speaking elpwire, the
//	                        length-prefixed binary protocol (internal/wire):
//	                        persistent multiplexed connections, raw word
//	                        payloads, zero-allocation hot path. Same store,
//	                        gates and drain semantics as the HTTP listener.
//	  -design string        elp2im | ambit | drisa (default "elp2im")
//	  -shards int           independent accelerator shards (ranks/channels with
//	                        private charge pumps); vectors place deterministically
//	                        on a home shard and each shard has its own
//	                        admission gate (default 1)
//	  -power-constrained    enforce the charge-pump/tFAW activation budget
//	  -max-queue int        in-flight bound per shard; beyond it requests get 503 (default 1024)
//	  -timeout duration     default per-request deadline (default 5s)
//	  -evalcache int        compiled-program LRU entries shared by /v1/eval,
//	                        /v1/query and /v1/arith (expression sources and
//	                        arith (op, width) shapes compile once, then hit;
//	                        default 256)
//	  -debug-addr string    optional observability endpoint (ServeDebug: /metrics,
//	                        /debug/vars, /debug/pprof) — the server.* series appear
//	                        there next to acc.*, engine.* and sched.cache.*
//
// The HTTP listener bounds header reads and idle keep-alive connections
// (Server.HTTPServer), so a client that never finishes its request header
// cannot hold a handler connection open forever.
//
// elpd prints "elpd: listening on <addr>" once ready (scripts/smoke.sh
// parses it) and on SIGTERM/SIGINT drains gracefully: stop admitting,
// finish every in-flight request, then exit 0 with "elpd: drained".
package main

import (
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

	elp2im "repro"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "elpd:", err)
		os.Exit(1)
	}
}

// parseDesign maps the flag value onto the facade's Design.
func parseDesign(s string) (elp2im.Design, error) {
	switch s {
	case "elp2im":
		return elp2im.DesignELP2IM, nil
	case "ambit":
		return elp2im.DesignAmbit, nil
	case "drisa":
		return elp2im.DesignDrisaNOR, nil
	default:
		return 0, fmt.Errorf("unknown design %q (want elp2im, ambit or drisa)", s)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("elpd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address (:0 for ephemeral)")
	wireAddr := fs.String("wire-addr", "", "optional elpwire binary-protocol listener (:0 for ephemeral)")
	designName := fs.String("design", "elp2im", "elp2im | ambit | drisa")
	shards := fs.Int("shards", 1, "independent accelerator shards (each with its own admission gate)")
	powerConstrained := fs.Bool("power-constrained", false, "enforce the charge-pump/tFAW activation budget")
	maxQueue := fs.Int("max-queue", 1024, "in-flight bound per shard (503 beyond it)")
	timeout := fs.Duration("timeout", 5*time.Second, "default per-request deadline")
	evalCache := fs.Int("evalcache", 0, "compiled-program cache entries for eval/arith (0 = default 256)")
	debugAddr := fs.String("debug-addr", "", "optional ServeDebug endpoint (/metrics, /debug/pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	design, err := parseDesign(*designName)
	if err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("shards must be >= 1, got %d", *shards)
	}
	mutate := func(c *elp2im.Config) {
		c.Design = design
		c.PowerConstrained = *powerConstrained
	}
	cfg := server.Config{
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		EvalCacheSize:  *evalCache,
	}
	// serveDebug starts the observability endpoint over whichever backend
	// owns the metric registries (the deployment's merged view when
	// sharded).
	var serveDebug func(string) (*elp2im.DebugServer, error)
	var designLabel string
	if *shards > 1 {
		sh, err := elp2im.NewShard(*shards, mutate)
		if err != nil {
			return err
		}
		cfg.Shard = sh
		serveDebug = sh.ServeDebug
		designLabel = sh.Design()
	} else {
		acc, err := elp2im.New(mutate)
		if err != nil {
			return err
		}
		cfg.Accelerator = acc
		serveDebug = acc.ServeDebug
		designLabel = acc.Design()
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		dbg, err := serveDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("elpd: debug endpoint on %s\n", dbg.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := srv.HTTPServer()
	fmt.Printf("elpd: %s design, %d shard(s), max queue %d\n",
		designLabel, srv.Shards(), *maxQueue)
	fmt.Printf("elpd: listening on %s\n", ln.Addr())

	// Optional elpwire listener: the binary protocol serves from the same
	// Server (store, request cores, admission, drain) as the HTTP mux.
	var wireLn net.Listener
	wireErrCh := make(chan error, 1)
	if *wireAddr != "" {
		wireLn, err = net.Listen("tcp", *wireAddr)
		if err != nil {
			return err
		}
		go func() {
			// A clean listener close returns nil; only faults surface.
			if werr := srv.ServeWire(wireLn); werr != nil {
				wireErrCh <- werr
			}
		}()
		fmt.Printf("elpd: wire listening on %s\n", wireLn.Addr())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case err := <-wireErrCh:
		return fmt.Errorf("wire listener: %w", err)
	case sig := <-sigCh:
		fmt.Printf("elpd: %v, draining\n", sig)
	}

	// Graceful drain: stop admitting new operations, let in-flight
	// requests finish, then stop the listeners.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Wire clients have been answering draining errors since Drain; now
	// stop accepting and end the remaining connections.
	if wireLn != nil {
		_ = wireLn.Close()
		srv.CloseWireConns()
	}
	st := srv.Stats()
	fmt.Printf("elpd: drained (%d ops executed, %d rejected, %d deadlines expired)\n",
		st.Server.BatchesFlushed, st.Server.Rejected, st.Server.DeadlineExpired)
	return nil
}
