// Command metarepaird is the repair-as-a-service daemon: the paper's
// diagnose → generate → backtest pipeline behind a multi-tenant HTTP
// API, backed by a bounded job engine and a per-tenant trace-store tree.
//
//	metarepaird -addr :8080 -data ./data [-workers N] [-queue-cap N]
//	            [-tenant-queued N] [-tenant-running N] [-result-ttl 1h]
//	            [-drain-timeout 30s] [-pprof]
//
// Endpoints (all request/response bodies are JSON unless noted):
//
//	POST   /v1/tenants/{t}/traces/{name}[?format=binary|jsonl]
//	       ingest a capture stream: the body is a concatenation of codec
//	       records (the §5.4 120-byte format by default), appended to the
//	       tenant's named trace store
//	GET    /v1/tenants/{t}/traces          list the tenant's traces
//	POST   /v1/tenants/{t}/jobs            submit a repair job (scenario,
//	       scale, optional stored trace + replay window, pipeline knobs)
//	GET    /v1/tenants/{t}/jobs            list the tenant's jobs
//	GET    /v1/jobs/{id}                   job status + full report
//	DELETE /v1/jobs/{id}                   cancel (queued or running)
//	GET    /v1/jobs/{id}/events            live SSE event stream
//	POST   /v1/tenants/{t}/watches         register a self-healing watch:
//	       tail the named trace live, detect the scenario's symptom over
//	       sliding windows, auto-submit a first-accepted repair job per
//	       flagged window
//	GET    /v1/tenants/{t}/watches         list the tenant's watches
//	GET    /v1/watches/{id}                watch status + loop stats
//	DELETE /v1/watches/{id}                stop the watch loop
//	GET    /v1/watches/{id}/events         live SSE stream of detections,
//	       suppressions, and repair verdicts (watch.* events)
//	GET    /scenarios                      registered scenario catalogue
//	GET    /healthz                        engine stats
//	GET    /metrics                        Prometheus text exposition: job
//	       engine, per-route HTTP, session span, sentinel watch, NDlog
//	       engine, and trace store families (see the README's
//	       Observability section)
//	GET    /debug/pprof/*                  runtime profiles (-pprof only)
//
// Submissions beyond the global queue cap or the tenant's queue cap are
// rejected with 429; per-tenant running quotas bound how much of the
// worker pool one tenant can hold. On SIGINT/SIGTERM the daemon drains:
// intake stops (503), running and queued jobs get -drain-timeout to
// finish, then stragglers are cancelled.
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
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/tracestore"
	"repro/scenario"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "trace-store root directory (required)")
	workers := flag.Int("workers", 0, "job worker-pool width (0 = all cores)")
	queueCap := flag.Int("queue-cap", 64, "global queued-job cap")
	tenantQueued := flag.Int("tenant-queued", 16, "per-tenant queued-job cap")
	tenantRunning := flag.Int("tenant-running", 0, "per-tenant running-job quota (0 = pool width)")
	resultTTL := flag.Duration("result-ttl", time.Hour, "retain finished job records this long")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"on shutdown, let jobs finish for this long before cancelling them")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "metarepaird: -data is required")
		os.Exit(2)
	}

	tenants, err := tracestore.OpenTenants(*data, tracestore.Options{})
	if err != nil {
		log.Fatalf("metarepaird: opening data dir: %v", err)
	}
	srv := newServer(scenario.Default(), tenants, jobs.Config{
		Workers: *workers, QueueCap: *queueCap,
		TenantQueueCap: *tenantQueued, TenantRunning: *tenantRunning,
		ResultTTL: *resultTTL,
	}, *enablePprof)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("metarepaird: serving on %s (data %s)", *addr, *data)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatalf("metarepaird: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process immediately

	log.Printf("metarepaird: draining (up to %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order: close the engine's intake and wait for jobs first (the
	// server's drain also ends live SSE streams), then stop accepting
	// connections.
	if err := srv.shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("metarepaird: drain: %v", err)
	} else if errors.Is(err, context.DeadlineExceeded) {
		log.Printf("metarepaird: drain deadline passed; remaining jobs cancelled")
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("metarepaird: http shutdown: %v", err)
	}
	log.Printf("metarepaird: bye")
}
