package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/embed"
	"thor/internal/obs"
	"thor/internal/router"
	"thor/internal/schema"
	"thor/internal/serve"
	"thor/internal/tablestore"
)

// Engine configuration: cmd/thord's flag defaults, and the paper's τ.
const (
	tau         = 0.7
	batchMax    = 16
	batchWindow = 2 * time.Millisecond
	queueDepth  = 64
	spanCap     = 4096
	traceSlow   = 250 * time.Millisecond
	traceKeep   = 256
	sloLatency  = 500 * time.Millisecond
	sloWindow   = time.Minute
	profKeep    = 32
	profSteady  = 10 * time.Minute
	profCPU     = 250 * time.Millisecond
)

// engine is one running THOR: the serve engine on a loopback listener, and
// for routed workloads an in-process router in front of it.
type engine struct {
	srv       *serve.Server
	httpSrv   *http.Server
	rt        *router.Router
	rtSrv     *http.Server
	stopProf  context.CancelFunc
	profDone  chan struct{}
	serving   sync.WaitGroup // the http.Server.Serve goroutines
	engineURL string         // the serve engine (table writes and reads go here)
	fillURL   string         // where fill traffic goes: the router when routed
}

// setupTiming splits one set-up into the public calls it times.
type setupTiming struct {
	spaceMS     float64
	tableMS     float64
	newServerMS float64
	totalS      float64
}

// tap wraps a handler the program exposes and, while a span log is
// attached, records one span per /v1/fill call (named fillName) or POST
// /v1/table call (named tablestore.mutate_handler) under the trace ID of the
// request's traceparent. With no log attached it only forwards.
type tap struct {
	log atomic.Pointer[spanLog]
}

func (t *tap) wrap(h http.Handler, fillName string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l := t.log.Load()
		if l == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		name := ""
		switch {
		case r.URL.Path == "/v1/fill":
			name = fillName
		case r.URL.Path == "/v1/table" && r.Method == http.MethodPost:
			name = spanMutate
		default:
			return
		}
		l.record(traceOf(r.Header.Get("traceparent")), name, start, end)
	})
}

// startEngine loads the space and tables from their encoded bytes, builds
// the engine (and router), starts serving on loopback and waits until
// /readyz answers 200. The returned timing covers exactly that span.
func startEngine(in *inputs, routed bool, tp *tap) (*engine, setupTiming, error) {
	var tm setupTiming
	t0 := time.Now()
	space, err := embed.ReadSpace(bytes.NewReader(in.spaceBytes))
	if err != nil {
		return nil, tm, fmt.Errorf("read space: %w", err)
	}
	t1 := time.Now()
	_, served, err := tablestore.ReadFrom(bytes.NewReader(in.servedBytes))
	if err != nil {
		return nil, tm, fmt.Errorf("read served table: %w", err)
	}
	var knowledge *schema.Table
	if in.knowledgeBytes != nil {
		if _, knowledge, err = tablestore.ReadFrom(bytes.NewReader(in.knowledgeBytes)); err != nil {
			return nil, tm, fmt.Errorf("read knowledge table: %w", err)
		}
	}
	t2 := time.Now()
	e := &engine{}
	srv, err := e.newServer(served, knowledge, space)
	if err != nil {
		return nil, tm, err
	}
	e.srv = srv
	t3 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.stop()
		return nil, tm, err
	}
	e.httpSrv = &http.Server{Handler: tp.wrap(srv, spanServe)}
	e.serve(e.httpSrv, ln)
	e.engineURL = "http://" + ln.Addr().String()
	e.fillURL = e.engineURL
	if routed {
		if err := e.startRouter(tp); err != nil {
			e.stop()
			return nil, tm, err
		}
	}
	if err := waitReady(e.fillURL); err != nil {
		e.stop()
		return nil, tm, err
	}
	t4 := time.Now()
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
	tm = setupTiming{spaceMS: ms(t0, t1), tableMS: ms(t1, t2), newServerMS: ms(t2, t3), totalS: t4.Sub(t0).Seconds()}
	return e, tm, nil
}

// newServer wires serve.NewServer the way cmd/thord does with its default
// flags: registry, tracer with flight recorder, journal, SLO engine,
// profiler and an info-level text logger.
func (e *engine) newServer(table, knowledge *schema.Table, space *embed.Space) (*serve.Server, error) {
	logger, err := obs.NewLogger(os.Stderr, "text", slog.LevelInfo)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(spanCap)
	recorder := obs.NewRecorder(obs.RecorderOptions{SlowThreshold: traceSlow, KeepInteresting: traceKeep})
	journal := obs.NewJournal(obs.JournalConfig{Node: "perfbench", Registry: reg})
	slo := obs.NewSLO(obs.SLOConfig{Window: sloWindow, Latency: sloLatency})
	profiler := obs.NewProfiler(obs.ProfilerConfig{
		Degraded:    slo.Degraded,
		SteadyEvery: profSteady,
		CPUDuration: profCPU,
		Capacity:    profKeep,
	})
	ctx, cancel := context.WithCancel(context.Background())
	e.stopProf, e.profDone = cancel, make(chan struct{})
	go func() {
		defer close(e.profDone)
		profiler.Run(ctx)
	}()
	srv, err := serve.NewServer(serve.Options{
		Table:       table,
		Knowledge:   knowledge,
		Space:       space,
		Tau:         tau,
		BatchMax:    batchMax,
		BatchWindow: batchWindow,
		QueueDepth:  queueDepth,
		Metrics:     reg,
		Tracer:      tracer,
		Recorder:    recorder,
		SLO:         slo,
		Profiler:    profiler,
		Journal:     journal,
		Logger:      logger,
	})
	if err != nil {
		cancel()
		<-e.profDone
		e.stopProf = nil
		return nil, fmt.Errorf("new server: %w", err)
	}
	return srv, nil
}

// startRouter puts router.New, with cmd/thor-router's defaults and one
// shard whose only backend is the engine, on its own loopback listener.
func (e *engine) startRouter(tp *tap) error {
	logger, err := obs.NewLogger(os.Stderr, "text", slog.LevelInfo)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(spanCap)
	tracer.SetRecorder(obs.NewRecorder(obs.RecorderOptions{SlowThreshold: traceSlow, KeepInteresting: traceKeep}))
	rt, err := router.New(router.Options{
		Shards:  router.SingleShard([]string{e.engineURL}),
		Metrics: reg,
		Tracer:  tracer,
		Journal: obs.NewJournal(obs.JournalConfig{Node: "perfbench-router", Registry: reg}),
		Logger:  logger,
	})
	if err != nil {
		return fmt.Errorf("new router: %w", err)
	}
	e.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.rtSrv = &http.Server{Handler: tp.wrap(rt.Handler(), spanRouter)}
	e.serve(e.rtSrv, ln)
	e.fillURL = "http://" + ln.Addr().String()
	return nil
}

// serve runs srv on ln until stop closes it.
func (e *engine) serve(srv *http.Server, ln net.Listener) {
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once stop closes srv
	}()
}

// stop shuts everything down and waits for the goroutines it owns.
func (e *engine) stop() {
	if e.rtSrv != nil {
		e.rtSrv.Close()
	}
	if e.rt != nil {
		e.rt.Close()
	}
	if e.httpSrv != nil {
		e.httpSrv.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.stopProf != nil {
		e.stopProf()
		<-e.profDone
	}
	e.serving.Wait()
}

// waitReady polls base/readyz until it answers 200, for at most 60s.
func waitReady(base string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after 60s (last error: %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
