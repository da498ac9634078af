// Command xrserved is the multi-tenant XR query daemon: it hosts many
// named exchanges (scenarios) in one process and serves XR-Certain /
// XR-Possible queries over HTTP, sharing warm signature-program caches
// across requests.
//
// Usage:
//
//	xrserved [-addr :8080] [flags]
//
// Lifecycle endpoints (see DESIGN.md §14 and README.md for bodies):
//
//	POST   /v1/scenarios              load a scenario (mapping + facts [+ queries])
//	GET    /v1/scenarios              list loaded scenarios
//	GET    /v1/scenarios/{name}       describe one scenario
//	DELETE /v1/scenarios/{name}       unload a scenario
//	POST   /v1/scenarios/{name}/query run a query (buffered JSON or NDJSON stream)
//	GET    /v1/scenarios/{name}/explain?query=Q[&tuple=a,b]
//	GET    /v1/scenarios/{name}/profile?top=N&sort=wall|conflicts|degraded
//	GET    /v1/store                  persistence status (data dir, tracked/dirty/quarantined)
//	GET    /v1/inflight               live requests (id, tenant, lane wait, progress)
//	GET    /v1/slowlog                recent slow requests (record + span tree)
//	GET    /v1/requests/{id}/trace    span tree of a recently completed request
//	GET    /healthz                   liveness + drain state, uptime, version
//	GET    /metrics                   Prometheus exposition (also /metrics.json, /debug/pprof/)
//
// Every request carries an X-Request-Id (generated, or honored from the
// client), echoed on the response and stamped into the access log, span
// trees, and solver trace events — one ID correlates all of them.
//
// With -data-dir the daemon persists every loaded scenario to a
// crash-safe store and rebuilds the registry from it on boot; damaged
// snapshots are quarantined (never fatal) and reported in /healthz and
// GET /v1/store.
//
// On SIGINT/SIGTERM the daemon stops admitting requests (503), lets
// in-flight queries finish (bounded by -drain-timeout), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		maxQueries  = flag.Int("max-queries", 0, "max concurrent queries across all tenants (0 = 2x GOMAXPROCS)")
		lanes       = flag.Int("lanes", 0, "total solver lanes shared across tenants (0 = GOMAXPROCS)")
		queryLanes  = flag.Int("query-lanes", 0, "signature workers per query, each taking a lane per job (0 = -lanes)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-query timeout")
		maxTimeout  = flag.Duration("max-timeout", 5*time.Minute, "hard cap on requested per-query timeouts")
		sigTimeout  = flag.Duration("signature-timeout", 0, "default per-signature solve timeout (0 = none)")
		decisions   = flag.Int64("max-decisions", 0, "default per-signature decision budget (0 = unlimited)")
		conflicts   = flag.Int64("max-conflicts", 0, "default per-signature conflict budget (0 = unlimited)")
		maxTenants  = flag.Int("max-scenarios", 64, "max loaded scenarios")
		maxBody     = flag.Int64("max-body-bytes", 16<<20, "max request body size in bytes")
		drainWindow = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight queries on shutdown")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		slowQuery   = flag.Duration("slow-query", 0, "slow-request threshold: offenders are logged at WARN and captured in /v1/slowlog (0 = disabled)")
		slowlogSize = flag.Int("slowlog-size", 64, "max entries retained in the /v1/slowlog ring")
		traceRing   = flag.Int("trace-ring-size", 128, "max completed-request traces retained for /v1/requests/{id}/trace")
		dataDir     = flag.String("data-dir", "", "persist scenarios here and recover them on boot (empty = in-memory only)")
		quarKeep    = flag.Duration("quarantine-retention", 0, "prune quarantined store artifacts older than this at boot (0 = keep forever)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "xrserved: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xrserved: %v\n", err)
		os.Exit(2)
	}

	metrics := repro.NewMetrics()
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir, store.Options{
			Logger:              logger,
			Metrics:             metrics,
			QuarantineRetention: *quarKeep,
		})
		if err != nil {
			logger.Error("opening data dir failed", "data_dir", *dataDir, "error", err.Error())
			os.Exit(1)
		}
	}

	srv := server.New(server.Config{
		MaxConcurrentQueries:    *maxQueries,
		TotalLanes:              *lanes,
		PerQueryLanes:           *queryLanes,
		DefaultTimeout:          *timeout,
		MaxTimeout:              *maxTimeout,
		DefaultSignatureTimeout: *sigTimeout,
		DefaultMaxDecisions:     *decisions,
		DefaultMaxConflicts:     *conflicts,
		MaxScenarios:            *maxTenants,
		MaxBodyBytes:            *maxBody,
		Metrics:                 metrics,
		Logger:                  logger,
		SlowQuery:               *slowQuery,
		SlowLogSize:             *slowlogSize,
		TraceRingSize:           *traceRing,
		Store:                   st,
	})

	// Recover persisted scenarios before the listener opens, so the first
	// request already sees the rebuilt registry. Damage never aborts boot:
	// corrupt or unloadable artifacts are quarantined and reported.
	if st != nil {
		sum, err := srv.RecoverFromStore()
		if err != nil {
			logger.Error("scenario recovery failed", "data_dir", *dataDir, "error", err.Error())
			os.Exit(1)
		}
		logger.Info("scenario recovery complete", "data_dir", *dataDir,
			"loaded", sum.Loaded, "adopted", sum.Adopted,
			"quarantined", sum.Quarantined, "skipped", sum.Skipped)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err.Error())
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Written after the listener is live: a script that waits for this
		// file can connect immediately.
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Error("write -addr-file failed", "path", *addrFile, "error", err.Error())
			os.Exit(1)
		}
	}
	logger.Info("listening", "addr", bound, "slow_query", slowQuery.String(), "log_format", *logFormat)

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "drain_timeout", drainWindow.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainWindow)
		defer cancel()
		// Drain first: new requests get 503 while in-flight queries finish,
		// so Shutdown below closes an already-quiescent server.
		if err := srv.Drain(ctx); err != nil {
			logger.Warn("drain incomplete; forcing shutdown", "error", err.Error())
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "error", err.Error())
			os.Exit(1)
		}
		if st != nil {
			// After the drain: no handler can race the final flush.
			st.Close()
		}
		logger.Info("drained cleanly")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "error", err.Error())
			os.Exit(1)
		}
	}
}

// buildLogger maps the -log-format/-log-level flags to a slog.Logger on
// stderr. JSON is the machine-readable access-log format (one object per
// line); text is for humans at a terminal.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
