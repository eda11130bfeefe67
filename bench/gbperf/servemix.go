package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/serve"
)

const (
	// serveRate is the open loop's offered load in jobs per second; at
	// this rate the fleet stays well short of saturation on two CPUs, so
	// latency measures the service path rather than an ever-growing queue.
	serveRate = 30.0
	// fig4JobN is the problem size of the mix's fig4 jobs.
	fig4JobN = 8
)

// blockKinds is the mix: every block of 20 consecutive jobs holds 12 run,
// 6 kernel and 2 fig4 jobs in a seed-drawn order, so runs with different
// seeds carry the same mix of work.
func blockKinds() []string {
	var kinds []string
	for _, k := range []struct {
		kind string
		n    int
	}{{serve.KindRun, 12}, {serve.KindKernel, 6}, {serve.KindFig4, 2}} {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	return kinds
}

// job is one generated request and what the replay needs to recompute
// its result.
type job struct {
	req     serve.JobRequest
	body    []byte
	variant attack.Variant // run jobs
	secret  []byte         // run jobs
	mode    core.Mode      // run jobs
	kernel  polybench.Kernel
}

// genJobs draws count jobs from seed. Run jobs attack a 2-byte secret
// with Spectre v1 or v4 under one of every registered mode; kernel jobs
// sweep one kernel at its paper size over the Figure 4 modes; fig4 jobs
// sweep the whole Figure 4 matrix at n=8. Modes and kernels are dealt
// from shuffled decks so each appears equally often.
func genJobs(seed int64, count int) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	base := dbt.DefaultConfig()
	modes, kernels := harness.AllModes(), polybench.All()
	var modeDeck, kernelDeck []int
	deal := func(deck *[]int, n int) int {
		if len(*deck) == 0 {
			*deck = rng.Perm(n)
		}
		i := (*deck)[0]
		*deck = (*deck)[1:]
		return i
	}
	kinds := blockKinds()
	var jobs []job
	for len(jobs) < count {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			j := job{req: serve.JobRequest{Tenant: fmt.Sprintf("t%d", rng.Intn(4)), Kind: kind}}
			switch kind {
			case serve.KindRun:
				j.variant = pocVariants[rng.Intn(len(pocVariants))]
				j.mode = modes[deal(&modeDeck, len(modes))]
				// Like attack.Params' own secrets: never 0x00 or 0x01,
				// which the probe cannot tell from "no hit".
				j.secret = []byte{byte(0x10 + rng.Intn(0xE0)), byte(0x10 + rng.Intn(0xE0))}
				src, err := attack.Source(j.variant, base, attack.Params{Secret: j.secret})
				if err != nil {
					return nil, err
				}
				j.req.Program, j.req.Mode = src, j.mode.String()
			case serve.KindKernel:
				j.kernel = kernels[deal(&kernelDeck, len(kernels))]
				j.req.Kernel = j.kernel.Name
			case serve.KindFig4:
				j.req.N = fig4JobN
			}
			body, err := json.Marshal(j.req)
			if err != nil {
				return nil, err
			}
			j.body = body
			jobs = append(jobs, j)
		}
	}
	return jobs[:count], nil
}

// service is a gbserve fleet behind a loopback HTTP listener, and the
// client the load generator sends with.
type service struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

// startService starts a server with gbserve's shipped defaults
// (GOMAXPROCS workers, job parallelism 2, queue depth 64, no tcache),
// waits until /readyz answers 200, and warms it up with one kernel job
// per kernel and one fig4 job, which fill its shared artifact cache.
func startService(conns int) (*service, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, hs: httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
	if err := s.waitReady(); err != nil {
		s.stop()
		return nil, err
	}
	warm := []serve.JobRequest{{Tenant: "warmup", Kind: serve.KindFig4, N: fig4JobN}}
	for _, k := range polybench.All() {
		warm = append(warm, serve.JobRequest{Tenant: "warmup", Kind: serve.KindKernel, Kernel: k.Name})
	}
	for _, req := range warm {
		body, err := json.Marshal(req)
		if err != nil {
			s.stop()
			return nil, err
		}
		st, code, err := s.submit(body)
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("HTTP %d, state %s, error %+v", code, st.State, st.Error)
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up %s job: %w", req.Kind, err)
		}
	}
	return s, nil
}

func (s *service) waitReady() error {
	for i := 0; i < 1000; i++ {
		resp, err := s.client.Get(s.hs.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server never became ready")
}

// submit posts one job and waits for it to finish (?wait=1).
func (s *service) submit(body []byte) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	resp, err := s.client.Post(s.hs.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	return st, resp.StatusCode, err
}

func (s *service) stop() error {
	err := s.srv.Shutdown(context.Background())
	s.client.CloseIdleConnections()
	s.hs.Close()
	return err
}

// sent is one request's outcome, timed from when it was due.
type sent struct {
	late    time.Duration // how late the generator handed it to a connection
	latency time.Duration // due time to response
	code    int
	st      serve.JobStatus
	err     error
}

// drive offers the jobs in an open loop: job i is due serveRate*i
// seconds after the start whether or not earlier jobs have finished,
// and goes out on the first of conns keep-alive connections that is
// free. Waiting for a connection counts toward its latency.
func (s *service) drive(jobs []job, conns int) []sent {
	out := make([]sent, len(jobs))
	next := make(chan int)
	start := time.Now()
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) * float64(time.Second) / serveRate))
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				d := due(i)
				o := &out[i]
				o.late = time.Since(d)
				o.st, o.code, o.err = s.submit(jobs[i].body)
				o.latency = time.Since(d)
			}
		}()
	}
	for i := range jobs {
		time.Sleep(time.Until(due(i)))
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// runServeMix sets the service up, offers seconds*serveRate jobs, then
// replays every job in-process to check the served results. In a traced
// run the replay is the traced pass.
func runServeMix(o options) (*result, error) {
	res := newResult()
	conns := runtime.NumCPU()
	jobs, err := genJobs(o.seed, max(1, int(serveRate*o.seconds.Seconds())))
	if err != nil {
		return nil, err
	}
	var svc *service
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if svc, err = startService(conns); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.put("setup_s", median(setupS), "s")

	b0, n0 := heapAllocs()
	c0 := cpuTime()
	out := svc.drive(jobs, conns)
	cpu := cpuTime() - c0
	b1, n1 := heapAllocs()
	if err := svc.stop(); err != nil {
		res.fail("shutdown: %v", err)
	}

	rp, err := newReplayer(!o.trace)
	if err != nil {
		return nil, err
	}
	var (
		latencies []float64
		late      []float64
		byKind    = map[string][]float64{}
	)
	t0 := time.Now()
	for i, j := range jobs {
		s := out[i]
		res.attempted++
		latencies = append(latencies, ms(s.latency))
		late = append(late, ms(s.late))
		byKind[j.req.Kind] = append(byKind[j.req.Kind], ms(s.latency))
		if s.err != nil || s.code/100 != 2 || s.st.State != serve.StateDone || s.st.Result == nil {
			res.failed++
			res.fail("job %d (%s): HTTP %d, state %q, error %v %+v", i, j.req.Kind, s.code, s.st.State, s.err, s.st.Error)
			continue
		}
		got := s.st.Result.Metrics["sim.cycles"]
		want, err := rp.replay(j)
		if err != nil || got != want {
			res.failed++
			res.fail("job %d (%s): served %d simulated cycles, replay %d (%v)", i, j.req.Kind, got, want, err)
		}
	}
	replayWall := time.Since(t0)

	jobsN := float64(len(jobs))
	putLatency(res, latencies)
	// Jobs are distinct programs, so the fast end is read across them.
	res.put("op_fast_ms", percentile(latencies, 0.1), "ms")
	res.put("alloc_mb_per_op", float64(b1-b0)/1e6/jobsN, "MB")
	res.put("mallocs_per_op", float64(n1-n0)/jobsN, "count")
	res.info["loadgen_late_p99_ms"] = percentile(late, 0.99)
	res.info["job_p90_ms"] = percentile(latencies, 0.9)
	for kind, l := range byKind {
		res.info[kind+"_job_p50_ms"] = median(l)
	}
	if o.trace {
		for name, v := range rp.led.layerValues(replayWall.Nanoseconds(), jobsN) {
			res.put(name, v, layerUnit(name))
		}
		for name, v := range rp.gen.genValues() {
			res.put(name, v, layerUnit(name))
		}
		// The replay runs the served work on one goroutine with no
		// service in front, so its wall time per job is set against the
		// CPU time a served job cost.
		res.put("trace.overhead_frac", float64(replayWall)/float64(cpu)-1, "ratio")
		res.put("tcache.doc_mb", 0, "MB")
	}
	return res, nil
}

// replayer recomputes served jobs in-process, one layer call at a time,
// and returns the simulated cycles each job must have reported.
type replayer struct {
	led, gen *ledger
	kernels  map[int]map[string]*kernelArt // by problem size, then name
	base     dbt.Config
	// memo, when non-nil, keeps each distinct job's cycles so a job
	// repeated in the mix is replayed once.
	memo map[string]uint64
}

func newReplayer(memo bool) (*replayer, error) {
	r := &replayer{led: newLedger(), gen: newLedger(), kernels: map[int]map[string]*kernelArt{}}
	arts := harness.NewArtifacts()
	for _, n := range []int{0, fig4JobN} {
		ks, err := generateKernels(r.gen, arts, n)
		if err != nil {
			return nil, err
		}
		r.kernels[n] = ks
	}
	r.base = dbt.DefaultConfig()
	r.base.Interrupt = make(chan struct{}) // polled like a job context's Done channel
	if memo {
		r.memo = map[string]uint64{}
	}
	return r, nil
}

// replay runs job j's cells the way the server does and returns their
// total simulated cycles.
func (r *replayer) replay(j job) (uint64, error) {
	key := fmt.Sprintf("%s|%s|%s|%x|%s", j.req.Kind, j.variant, j.mode, j.secret, j.kernel.Name)
	if c, ok := r.memo[key]; ok {
		return c, nil
	}
	var total uint64
	add := func(c cellOut, err error) error {
		total += c.cycles
		return err
	}
	cfg := r.base
	switch j.req.Kind {
	case serve.KindRun:
		cfg.Mitigation = j.mode
		if err := add(r.led.attackCell(j.variant, cfg, j.secret)); err != nil {
			return 0, err
		}
	case serve.KindKernel:
		for _, mode := range harness.Fig4Modes {
			cfg.Mitigation = mode
			if err := add(r.led.kernelCell(cfg, r.kernels[0][j.kernel.Name])); err != nil {
				return 0, err
			}
		}
	case serve.KindFig4:
		for _, k := range polybench.All() {
			for _, mode := range harness.Fig4Modes {
				cfg.Mitigation = mode
				if err := add(r.led.kernelCell(cfg, r.kernels[fig4JobN][k.Name])); err != nil {
					return 0, err
				}
			}
		}
		for _, v := range pocVariants {
			for _, mode := range harness.Fig4Modes {
				cfg.Mitigation = mode
				if err := add(r.led.attackCell(v, cfg, fig4Secret)); err != nil {
					return 0, err
				}
			}
		}
	}
	if r.memo != nil {
		r.memo[key] = total
	}
	return total, nil
}
