package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/scan"
)

// jobKind is one entry of the job mix.
type jobKind struct {
	name string
	spec jobs.Spec
	// seeded kinds take the run seed as their spec seed, so the run
	// seed changes their inputs; the others keep seed 1, so their
	// outputs are comparable across runs.
	seeded bool
}

const (
	// leaseTTL is scand's -lease-ttl deployment setting. Workers
	// heartbeat every third of it, so the long job's omission task
	// heartbeats with a checkpoint at least once.
	leaseTTL = 450 * time.Millisecond
	// workerPoll is the workers' idle claim interval. It bounds how long
	// a job submitted to an idle fleet waits, so it is kept well under
	// the short jobs' run time.
	workerPoll = 20 * time.Millisecond
)

// jobsMixConfig shapes the jobs-mix workload; zero fields take the
// defaults below.
type jobsMixConfig struct {
	kinds []jobKind
	// long names the kind whose result gives test_cycles, scan_cycles
	// and detected_faults; it must be a single-circuit compact job.
	long string
	// perBatch is how many jobs of each kind one batch holds.
	perBatch int
	// minJobs is how many jobs a run completes at least, so the
	// latency tail has enough samples beyond it.
	minJobs int
}

func (c jobsMixConfig) withDefaults() jobsMixConfig {
	if c.kinds == nil {
		c.kinds = []jobKind{
			{name: "simulate-s953", seeded: true, spec: jobs.Spec{Flow: jobs.FlowSimulate, Circuits: []string{"s953"}, Partitions: 2}},
			{name: "compact-s298", spec: jobs.Spec{Flow: jobs.FlowCompact, Circuits: []string{"s298"}, OmitShards: 2}},
			{name: "compact-s298-long", spec: jobs.Spec{Flow: jobs.FlowCompact, Circuits: []string{"s298"}, SeqLen: 1024}},
		}
		c.long = "compact-s298-long"
	}
	if c.perBatch == 0 {
		c.perBatch = 8
	}
	if c.minJobs == 0 {
		c.minJobs = 100 // p90 with ten samples beyond it
	}
	return c
}

// jobRequest is one job of a batch: its kind and the spec submitted.
type jobRequest struct {
	kind string
	spec jobs.Spec
}

// jobsMix is the job service from one process: an in-process server
// behind a loopback listener with its own pool off, nproc remote
// workers claiming over HTTP, and a closed loop of nproc clients that
// each submit a job and wait for its result bytes before the next.
func jobsMix(cfg jobsMixConfig) func(*runEnv) (*Result, error) {
	return func(env *runEnv) (*Result, error) {
		cfg := cfg.withDefaults()
		res := newResult()
		scratch, err := os.MkdirTemp(env.outDir, "jobs-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)

		// Set-up is timed first, before the reference runs write job data
		// and before the live service's polling workers start.
		var setups []float64
		for i := 0; !env.traced && i < setupRounds; i++ {
			setups, err = sampleSetup(setups, func() (time.Duration, error) {
				t0 := time.Now()
				svc, err := startService(filepath.Join(scratch, "setup"), 0, nil)
				if err != nil {
					return 0, err
				}
				d := time.Since(t0)
				svc.stop()
				return d, os.RemoveAll(filepath.Join(scratch, "setup"))
			})
			if err != nil {
				return nil, err
			}
		}

		specs := make(map[string]jobs.Spec) // by kind
		for _, k := range cfg.kinds {
			sp := k.spec
			sp.Workers = 1 // one simulation worker per task: the fleet supplies the parallelism
			sp.Seed = 1
			if k.seeded {
				sp.Seed = env.seed
			}
			specs[k.name] = sp
		}
		refs, err := referenceResults(filepath.Join(scratch, "ref"), specs)
		if err != nil {
			return nil, err
		}
		if err := longOutputs(specs[cfg.long], refs[cfg.long], res); err != nil {
			return nil, err
		}

		var tr *Tracer
		if env.traced {
			tr = NewTracer()
		}
		nproc := runtime.NumCPU()
		svc, err := startService(filepath.Join(scratch, "live"), nproc, tr)
		if err != nil {
			return nil, err
		}
		// A traced run alternates untraced and traced batches on the one
		// service; the untraced ones are the base of the tracing overhead.
		rng := rand.New(rand.NewSource(int64(env.seed)))
		var lat, walls, cpus, tracedWalls []float64
		var ckptBytes, ckptTasks int64
		start := time.Now()
		for b := 0; ; b++ {
			elapsed := time.Since(start) >= env.budget
			if env.traced && elapsed && len(tracedWalls) > 0 {
				break
			}
			if !env.traced && elapsed && len(lat) >= cfg.minJobs {
				break
			}
			traced := env.traced && b%2 == 1
			batch := makeBatch(cfg, specs, rng, b)
			runtime.GC() // outside the timed interval, as between flow runs
			c0, t0 := cpuTime(), time.Now()
			out := svc.runBatch(batch, refs, traced)
			wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
			res.Attempted += len(batch)
			for _, why := range out.failures {
				res.fail("%s", why)
			}
			if traced {
				tracedWalls = append(tracedWalls, wall)
				ckptBytes += out.ckptBytes
				ckptTasks += out.ckptTasks
				continue
			}
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
			lat = append(lat, out.latencies...)
		}
		svc.stop()
		for _, why := range svc.failures() {
			res.fail("%s", why)
		}
		res.Info["batches"] = len(walls) + len(tracedWalls)
		res.Info["jobs_per_batch"] = cfg.perBatch * len(cfg.kinds)
		res.Info["lease_ttl_ms"] = leaseTTL.Milliseconds()
		res.Info["workers"] = nproc
		res.Info["clients"] = nproc

		if env.traced {
			spans := linkJobs(tr.Spans())
			svc.http.metrics(spans, res)
			res.ratio("runctl.ckpt_bytes", Ratio{Num: float64(ckptBytes), Base: float64(ckptTasks)})
			res.ratio("bench.trace_overhead_ratio", Ratio{Num: median(tracedWalls), Base: median(walls)})
			if err := writeSpans(filepath.Join(env.outDir, "spans-"+env.workload+".json"), spans); err != nil {
				return nil, err
			}
			return res, nil
		}
		n := len(lat)
		res.setN("setup_s", median(setups), len(setups))
		res.setN("wall_s", median(walls), len(walls))
		res.note("wall_s", fmt.Sprintf("one execution is a batch of %d jobs", cfg.perBatch*len(cfg.kinds)))
		res.setN("cpu_s", median(cpus), len(cpus))
		res.set("peak_rss_mib", peakRSSMiB())
		total := 0.0
		for _, w := range walls {
			total += w
		}
		res.ratio("jobs_per_s", Ratio{Num: float64(n), Base: total})
		res.setN("job_latency_p50_s", median(lat), n)
		res.setN("job_latency_p90_s", percentile(lat, 90), n)
		if tail, ok := tailPercentile(lat, minTailBeyond); ok {
			d := res.Details["job_latency_p90_s"]
			d.Tail = &tail
			res.Details["job_latency_p90_s"] = d
		}
		return res, nil
	}
}

// makeBatch returns batch b: perBatch jobs of every kind in a seeded
// order, alternating two tenants.
func makeBatch(cfg jobsMixConfig, specs map[string]jobs.Spec, rng *rand.Rand, b int) []jobRequest {
	var batch []jobRequest
	for _, k := range cfg.kinds {
		for i := 0; i < cfg.perBatch; i++ {
			batch = append(batch, jobRequest{kind: k.name, spec: specs[k.name]})
		}
	}
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	for i := range batch {
		batch[i].spec.Tenant = []string{"tenant-a", "tenant-b"}[(i+b)%2]
	}
	return batch
}

// referenceResults runs every spec once on a single-process server (its
// own in-process pool, no HTTP) and returns the result bytes by kind.
func referenceResults(dir string, specs map[string]jobs.Spec) (map[string][]byte, error) {
	srv, err := jobs.NewServer(jobs.Options{DataDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	defer srv.Drain()
	refs := make(map[string][]byte, len(specs))
	for kind, sp := range specs {
		st, err := srv.Submit(sp)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", kind, err)
		}
		if err := srv.Wait(st.ID); err != nil {
			return nil, fmt.Errorf("reference %s: %w", kind, err)
		}
		data, err := srv.Result(st.ID)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", kind, err)
		}
		refs[kind] = data
	}
	return refs, nil
}

// longOutputs derives test_cycles, scan_cycles and detected_faults from
// the long compact job's reference result: its compacted length, the
// scan vectors of the sequence its kept mask selects, and an
// independent fault grade of that sequence.
func longOutputs(sp jobs.Spec, ref []byte, res *Result) error {
	var r jobs.Result
	if err := json.Unmarshal(ref, &r); err != nil {
		return fmt.Errorf("long compact reference: %w", err)
	}
	if len(r.Compact) != 1 {
		return fmt.Errorf("long compact reference has %d circuits, want 1", len(r.Compact))
	}
	row := r.Compact[0]
	c, err := circuits.Load(row.Circuit)
	if err != nil {
		return err
	}
	d, err := scan.Insert(c)
	if err != nil {
		return err
	}
	seq, err := compact.ApplyMask(jobs.TestSequence(d, sp.Seed, row.SeqLen), row.Kept)
	if err != nil {
		return err
	}
	if len(seq) != row.CompactedLen {
		return fmt.Errorf("kept mask selects %d vectors, result says %d", len(seq), row.CompactedLen)
	}
	faults := fault.Universe(d.Scan, !sp.NoCollapse)
	detected := grade(d.Scan, seq, faults).NumDetected()
	if want := row.TargetFaults + row.ExtraDetected; detected != want {
		return fmt.Errorf("compacted sequence detects %d faults, result says %d target + %d extra", detected, row.TargetFaults, row.ExtraDetected)
	}
	res.set("test_cycles", float64(row.CompactedLen))
	res.set("scan_cycles", float64(d.CountScanVectors(seq)))
	res.set("detected_faults", float64(detected))
	res.Info["long_compact"] = map[string]int{"seq_len": row.SeqLen, "restored": row.RestoredLen, "compacted": row.CompactedLen}
	return nil
}

// service is one running job service: server, listener, workers.
type service struct {
	srv     *jobs.Server
	httpSrv *http.Server
	base    string
	http    *httpTrace // nil when untraced
	tr      *Tracer

	cancel     context.CancelFunc
	workers    sync.WaitGroup
	served     chan error
	clients    []*jobs.Client // the closed loop's clients, one per worker
	transports []*http.Transport

	mu       sync.Mutex
	stopping bool
	logFails []string
}

// startService starts the server, n remote workers and n clients, and
// returns once the server answers a claim: the first claimable state.
func startService(dir string, n int, tr *Tracer) (*service, error) {
	srv, err := jobs.NewServer(jobs.Options{DataDir: dir, Workers: -1, LeaseTTL: leaseTTL})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &service{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		base:    "http://" + ln.Addr().String(),
		tr:      tr,
		served:  make(chan error, 1),
	}
	if tr != nil {
		s.http = newHTTPTrace(tr)
	}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	probe := &jobs.Client{Base: s.base, HTTP: s.client()}
	if _, err := probe.Claim(context.Background(), "setup-probe"); err != nil {
		s.stop()
		return nil, fmt.Errorf("first claim: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < n; i++ {
		w, err := jobs.NewWorker(jobs.WorkerOptions{
			Server:  s.base,
			Name:    fmt.Sprintf("worker-%d", i),
			DataDir: filepath.Join(dir, fmt.Sprintf("worker-%d", i)),
			Poll:    workerPoll,
			HTTP:    s.client(),
			Logf:    s.workerLog,
		})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			w.Run(ctx)
		}()
		s.clients = append(s.clients, &jobs.Client{Base: s.base, HTTP: s.client()})
	}
	return s, nil
}

// client returns an HTTP client with its own connection pool, wrapped
// in the span-recording transport when the run is traced.
func (s *service) client() *http.Client {
	t := &http.Transport{MaxIdleConnsPerHost: 4}
	s.transports = append(s.transports, t)
	var rt http.RoundTripper = t
	if s.http != nil {
		rt = s.http.wrap(rt)
	}
	return &http.Client{Transport: rt}
}

// workerLog collects the worker log lines that mean an operation
// failed: a claim, heartbeat, upload or release error, or a lease lost
// to reclamation.
func (s *service) workerLog(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	bad := false
	for _, p := range []string{"claim:", "heartbeat:", "result upload:", "release:", "seed checkpoint:", "released "} {
		bad = bad || strings.HasPrefix(msg, p)
	}
	bad = bad || strings.Contains(msg, "reclaimed") || strings.Contains(msg, "gone at upload")
	if !bad {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopping {
		s.logFails = append(s.logFails, "worker: "+msg)
	}
}

func (s *service) failures() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.logFails...)
}

// stop shuts the workers down, drains the server and closes the
// listener, waiting for each to finish.
func (s *service) stop() {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
	}
	s.workers.Wait()
	s.srv.Drain()
	s.httpSrv.Close()
	<-s.served
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}

// batchOutcome is what one batch measured.
type batchOutcome struct {
	latencies            []float64
	failures             []string
	ckptBytes, ckptTasks int64
}

// runBatch drives the batch through the closed loop of clients and
// checks every result against its reference bytes.
func (s *service) runBatch(batch []jobRequest, refs map[string][]byte, traced bool) batchOutcome {
	var tr *Tracer
	if traced {
		tr = s.tr
	}
	s.http.enable(traced)
	defer s.http.enable(false)
	var out batchOutcome
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *jobs.Client) {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(batch) {
					return
				}
				lat, ckpt, tasks, err := s.runJob(c, tr, batch[j], refs[batch[j].kind])
				mu.Lock()
				if err != nil {
					out.failures = append(out.failures, fmt.Sprintf("%s job: %v", batch[j].kind, err))
				} else {
					out.latencies = append(out.latencies, lat.Seconds())
					out.ckptBytes += ckpt
					out.ckptTasks += tasks
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runJob submits one job, waits for it to settle, fetches its result
// bytes and compares them with the reference. A traced run then fetches
// the job's per-task checkpoints through the API to size them.
func (s *service) runJob(c *jobs.Client, tr *Tracer, req jobRequest, ref []byte) (lat time.Duration, ckptBytes, ckptTasks int64, err error) {
	ctx := context.Background()
	root := tr.Start("jobs.job", 0, "")
	ctx = withParent(ctx, root)
	t0 := time.Now()
	st, err := c.Submit(ctx, req.spec)
	if err != nil {
		tr.End(root)
		return 0, 0, 0, fmt.Errorf("submit: %w", err)
	}
	tr.SetTrace(root, st.ID)
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		tr.End(root)
		return 0, 0, 0, fmt.Errorf("watch %s: %w", st.ID, err)
	}
	if final.State != jobs.StateComplete {
		tr.End(root)
		return 0, 0, 0, fmt.Errorf("%s ended %s: %s", st.ID, final.State, final.Error)
	}
	data, err := c.Result(ctx, st.ID)
	lat = time.Since(t0)
	tr.End(root)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("result %s: %w", st.ID, err)
	}
	if !bytes.Equal(data, ref) {
		return 0, 0, 0, fmt.Errorf("%s result differs from the single-process reference", st.ID)
	}
	if tr == nil {
		return lat, 0, 0, nil
	}
	names, err := c.Checkpoints(ctx, st.ID)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("checkpoints %s: %w", st.ID, err)
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		b, err := c.Checkpoint(ctx, st.ID, name)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("checkpoint %s/%s: %w", st.ID, name, err)
		}
		ckptBytes += int64(len(b))
		ckptTasks++
	}
	return lat, ckptBytes, ckptTasks, nil
}
