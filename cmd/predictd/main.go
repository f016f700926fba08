// Command predictd is the prediction service: the perfpredict
// library behind an HTTP API, for deployments where per-invocation
// process startup would dominate the analysis itself.
//
//	predictd [-addr :8791] [-max-inflight 64] [-timeout 30s]
//	         [-max-body 1048576] [-workers 0] [-pprof]
//	         [-result-cache-bytes 67108864] [-no-result-cache]
//	         [-cache-snapshot path] [-max-jobs 2] [-job-timeout 5m]
//	         [-max-cells 4096]
//
// Endpoints (all POST, JSON in/out; see README "Serving"):
//
//	/v1/predict          price one program, optionally evaluate at a point
//	/v1/batch            price many programs on one warm shared cache
//	/v1/optimize         search transformations for a faster variant
//	/v1/optimize?async=1 submit the search as a job, 202 + job id
//	/v1/explore          sweep a machine-template lattice to a Pareto front
//	/v1/explore?async=1  submit the sweep as a job, 202 + job id
//	/v1/jobs/{id}        GET: poll job state, progress, and result
//
// plus GET /metrics (Prometheus text), /healthz, /readyz, and — with
// -pprof — /debug/pprof/. Every API request runs under a deadline
// (-timeout) that is threaded as context cancellation into the batch
// workers and the transformation search, so a dropped client stops
// consuming CPU. Admission is bounded (-max-inflight); excess load is
// shed with 503 instead of queueing.
//
// A content-addressed result cache (-result-cache-bytes) fronts every
// endpoint with finished response bodies; -cache-snapshot names a file
// the cache is loaded from on boot (a corrupt or missing file just
// means a cold start) and written to on drain, so a restart keeps its
// warmth. SIGINT/SIGTERM drain gracefully: /readyz flips to 503 (with
// Retry-After), in-flight requests finish, running async jobs
// complete, then the snapshot is written and the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfpredict/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8791", "listen address")
	maxInflight := flag.Int("max-inflight", 64, "admitted-request bound; excess is shed with 503")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	workers := flag.Int("workers", 0, "per-request worker-pool cap for batch/optimize/explore (0 = GOMAXPROCS)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")
	cacheBytes := flag.Int64("result-cache-bytes", 0, "result-cache byte budget (0 = 64 MiB)")
	noCache := flag.Bool("no-result-cache", false, "disable the content-addressed result cache")
	snapshot := flag.String("cache-snapshot", "", "result-cache snapshot file: loaded on boot, written on drain")
	maxJobs := flag.Int("max-jobs", 2, "concurrently running async jobs (optimize searches, explore sweeps)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-job deadline for async optimize/explore")
	maxCells := flag.Int("max-cells", 4096, "largest machine-template lattice /v1/explore accepts")
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxInflight:        *maxInflight,
		Timeout:            *timeout,
		MaxBodyBytes:       *maxBody,
		Workers:            *workers,
		EnablePprof:        *enablePprof,
		ResultCacheBytes:   *cacheBytes,
		DisableResultCache: *noCache,
		MaxJobs:            *maxJobs,
		JobTimeout:         *jobTimeout,
		MaxExploreCells:    *maxCells,
	})
	if *snapshot != "" && srv.Results() != nil {
		// A missing or corrupt snapshot only costs warmth: log and
		// boot cold, never fail.
		if err := srv.Results().LoadFile(*snapshot); err != nil {
			log.Printf("predictd: cache snapshot %s not loaded (starting cold): %v", *snapshot, err)
		} else {
			st := srv.Results().Stats()
			log.Printf("predictd: cache snapshot %s loaded: %d entries, %d bytes",
				*snapshot, st.Entries, st.Bytes)
		}
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("predictd: %v: draining (deadline %v)", s, *drainTimeout)
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("predictd: drain: %v", err)
		}
		// Let running async jobs land their results before the
		// snapshot is cut.
		if err := srv.DrainJobs(ctx); err != nil {
			log.Printf("predictd: job drain: %v", err)
		}
		if *snapshot != "" && srv.Results() != nil {
			if err := srv.Results().SaveFile(*snapshot); err != nil {
				log.Printf("predictd: cache snapshot %s not written: %v", *snapshot, err)
			} else {
				st := srv.Results().Stats()
				log.Printf("predictd: cache snapshot %s written: %d entries", *snapshot, st.Entries)
			}
		}
	}()

	log.Printf("predictd: listening on %s (max-inflight %d, timeout %v)", *addr, *maxInflight, *timeout)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("predictd: %v", err)
	}
	<-done
	log.Printf("predictd: drained, bye")
}
