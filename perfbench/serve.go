package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/isolation"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// clients is the number of closed-loop client goroutines, each holding
// one keep-alive connection (the host's core count when sized).
const clients = 2

// warmupWindow is the fixed closed-loop warm-up before the measured
// window: its requests are checked but not timed. Throughput climbs for
// the first seconds of serving (keep-warm pools fill, the Go heap and
// GC pacing settle), so the window starts after it.
const warmupWindow = 3 * time.Second

// reqKey is one request's identity: the router's affinity key.
type reqKey struct{ kernel, backend, scheme string }

func (k reqKey) path() string {
	q := "?backend=" + k.backend
	if k.scheme != "" {
		q += "&scheme=" + k.scheme
	}
	return "/invoke/" + k.kernel + q
}

// serveShape is a serving workload: its topology and its request draw.
type serveShape struct {
	servers int // 1 = client → server; 2 = client → router → servers
	shards  int // server.Config.Shards (0 = server default)
	keys    []reqKey
	draw    func(rng *stats.RNG) int // index into keys
	// rssAfter is the request budget (warm-up included) after which
	// peak_rss_mb is read; see rssProbe.
	rssAfter int64
}

// rssProbe reads the process's peak RSS once a fixed number of requests
// has been offered. Pooled instances keep memory per cold start, so the
// high-water mark grows with the requests served; read at the end of a
// timed window it would rise with throughput. Read after a fixed request
// budget it moves only with memory per request.
type rssProbe struct {
	budget int64
	n      atomic.Int64
	mb     atomic.Uint64 // math.Float64bits of the reading
	done   atomic.Bool
}

// count records one offered request, reading the peak RSS on the
// budget's last one. A nil probe counts nothing.
func (p *rssProbe) count() {
	if p != nil && p.n.Add(1) == p.budget {
		p.mb.Store(math.Float64bits(peakRSSMB()))
		p.done.Store(true)
	}
}

func (p *rssProbe) taken() bool { return p.done.Load() }

func (p *rssProbe) value() float64 { return math.Float64frombits(p.mb.Load()) }

// edgeMix is the repository's edge-serving kernel mix, the one
// tools/clusterbench.sh, tools/clustersmoke.sh and docs/OPERATIONS.md
// drive faasload with.
const edgeMix = "regex-filtering:6,hash-load-balance:3,html-templating:1"

// hotShape: one server, colorguard and the default scheme, kernels from
// the edge mix, so with three affinity keys keep-warm pools mostly hit.
var hotShape = func() serveShape {
	mix, err := cluster.ParseMix(edgeMix)
	if err != nil {
		panic(err)
	}
	var keys []reqKey
	idx := map[string]int{}
	for _, n := range mix.Names() {
		idx[n] = len(keys)
		keys = append(keys, reqKey{kernel: n, backend: string(isolation.ColorGuard)})
	}
	return serveShape{servers: 1, keys: keys, rssAfter: 60000,
		draw: func(rng *stats.RNG) int { return idx[mix.Pick(rng)] }}
}()

// wideShape: a router in front of two one-shard servers, requests
// uniform over 3 kernels x 4 backends x 4 schemes = 48 affinity keys,
// so most requests take the cold placement path.
var wideShape = func() serveShape {
	var keys []reqKey
	for _, k := range workloads.FaaS().Kernels {
		for _, b := range isolation.Kinds() {
			for _, s := range isolation.Schemes() {
				keys = append(keys, reqKey{kernel: k.Name, backend: string(b), scheme: string(s)})
			}
		}
	}
	return serveShape{servers: 2, shards: 1, keys: keys, rssAfter: 30000,
		draw: func(rng *stats.RNG) int { return rng.Intn(len(keys)) }}
}()

// handlerLog is the benchmark's middleware around each worker's
// handler: when on, it records every request's handler time under the
// X-Trace-Id the server assigned.
type handlerLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	recs map[string]handlerRec
}

type handlerRec struct {
	worker int
	start  time.Time
	dur    time.Duration
}

func (l *handlerLog) wrap(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		id := w.Header().Get("X-Trace-Id")
		l.mu.Lock()
		l.recs[id] = handlerRec{worker: worker, start: t0, dur: d}
		l.mu.Unlock()
	})
}

// system is the serving stack under test, all in this process.
type system struct {
	servers   []*server.Server
	regs      []*telemetry.Registry
	router    *cluster.Router
	routerReg *telemetry.Registry
	https     []*http.Server // router first, so close drains it first
	serveWG   sync.WaitGroup
	base      string
	hlog      *handlerLog // nil on untraced runs
	exp       *expected
	irBuild   time.Duration
}

// newSystem constructs the stack: the served kernels' IR, the expected
// outputs, every server (compiling its kernels: the module cache is
// cleared first so each construction pays compilation), the router and
// the loopback listeners.
func newSystem(sh serveShape, traced bool) (*system, error) {
	s := &system{}
	t0 := time.Now()
	for _, k := range workloads.FaaS().Kernels {
		k.Build(false)
	}
	s.irBuild = time.Since(t0)
	var err error
	if s.exp, err = loadExpected(); err != nil {
		return nil, err
	}
	if traced {
		s.hlog = &handlerLog{recs: make(map[string]handlerRec)}
	}
	rt.ResetModuleCache()
	var urls []string
	for i := 0; i < sh.servers; i++ {
		reg := telemetry.NewRegistry()
		srv, err := server.New(server.Config{Shards: sh.shards, Registry: reg})
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.regs = append(s.regs, reg)
		var h http.Handler = srv.Handler()
		if traced {
			h = s.hlog.wrap(i, h)
		}
		url, err := s.listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	if sh.servers == 1 {
		s.base = urls[0]
		return s, nil
	}
	s.routerReg = telemetry.NewRegistry()
	s.router = cluster.NewRouter(cluster.RouterConfig{Registry: s.routerReg})
	for i, u := range urls {
		s.router.AddWorker(fmt.Sprintf("w%d", i), u)
	}
	if s.base, err = s.listen(s.router.Handler()); err != nil {
		s.close()
		return nil, err
	}
	// The router's listener was added last; close it first.
	n := len(s.https)
	s.https[0], s.https[n-1] = s.https[n-1], s.https[0]
	return s, nil
}

// listen serves h on a loopback port and returns its base URL.
func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the listeners down (waiting for in-flight handlers), then
// drains and stops every server's workers.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range s.https {
		_ = hs.Shutdown(ctx) // a timeout here leaves Close below to finish the work
	}
	s.serveWG.Wait()
	for _, srv := range s.servers {
		srv.BeginDrain()
		_ = srv.Close() // always nil
	}
}

// sample is one timed request of the window.
type sample struct {
	key     int
	conn    int
	sent    time.Time
	lat     time.Duration
	ok      bool
	traceID string
	phases  map[string]float64 // µs, traced runs only
}

// tally counts a client's outcomes for the conservation check.
type tally struct{ offered, ok, shed, failed int64 }

func (t *tally) add(o tally) {
	t.offered += o.offered
	t.ok += o.ok
	t.shed += o.shed
	t.failed += o.failed
}

// invokeReply is the part of a /invoke response the benchmark checks;
// checkedReply is the same without the phases.
type invokeReply struct {
	Checksum uint64             `json:"checksum"`
	PhaseUs  map[string]float64 `json:"phase_us"`
}

type checkedReply struct {
	Checksum uint64 `json:"checksum"`
}

// client is one closed-loop connection.
type client struct {
	id   int
	hc   *http.Client
	base string
	sh   serveShape
	rng  *stats.RNG
	exp  map[string]faasExp
	rss  *rssProbe
	// phases keeps each reply's phase_us and X-Trace-Id (traced runs).
	// Untraced runs skip them: a window's worth of per-request maps
	// would load the measured process's heap and its peak RSS.
	phases bool
	errs   []string
}

// do sends one request and waits for its reply, classifying it: ok (200
// with the right checksum), shed (429/503) or failed (anything else).
func (c *client) do(key int, t *tally) sample {
	k := c.sh.keys[key]
	s := sample{key: key, conn: c.id, sent: time.Now()}
	t.offered++
	defer c.rss.count()
	resp, err := c.hc.Get(c.base + k.path())
	if err != nil {
		s.lat = time.Since(s.sent)
		t.failed++
		c.note("%s: %v", k.path(), err)
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(s.sent)
	if c.phases {
		s.traceID = resp.Header.Get("X-Trace-Id")
	}
	switch {
	case err != nil:
		t.failed++
		c.note("%s: reading reply: %v", k.path(), err)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		t.shed++
		c.note("%s: shed with %d", k.path(), resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		t.failed++
		c.note("%s: status %d: %s", k.path(), resp.StatusCode, strings.TrimSpace(string(body)))
	default:
		var rep invokeReply
		var err error
		if c.phases {
			err = json.Unmarshal(body, &rep)
		} else {
			var cr checkedReply
			err = json.Unmarshal(body, &cr)
			rep.Checksum = cr.Checksum
		}
		if err != nil {
			t.failed++
			c.note("%s: bad reply: %v", k.path(), err)
		} else if want := c.exp[k.kernel].Checksum; rep.Checksum != want {
			t.failed++
			c.note("%s: checksum %d, want %d", k.path(), rep.Checksum, want)
		} else {
			t.ok++
			s.ok = true
			s.phases = rep.PhaseUs
		}
	}
	return s
}

func (c *client) note(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// windowRun is one closed-loop window: every sample in per-client
// completion order, the outcome tally, and the window's start and
// length to the last completion.
type windowRun struct {
	samples []sample
	tally   tally
	start   time.Time
	elapsed time.Duration
	steal   []float64 // host steal share per subWindow slice
}

// window drives every client in a closed loop until d has passed, each
// client finishing the request it has in flight.
func window(cs []*client, d time.Duration) windowRun {
	per := make([][]sample, len(cs))
	tallies := make([]tally, len(cs))
	ends := make([]time.Time, len(cs))
	w := windowRun{start: time.Now()}
	deadline := w.start.Add(d)
	sampler := startStealSampler(w.start, subWindow)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[i] = append(per[i], c.do(c.sh.draw(c.rng), &tallies[i]))
			}
			ends[i] = time.Now()
		}(i, c)
	}
	wg.Wait()
	w.steal = sampler.finish()
	end := w.start
	for i := range cs {
		w.samples = append(w.samples, per[i]...)
		w.tally.add(tallies[i])
		if ends[i].After(end) {
			end = ends[i]
		}
	}
	w.elapsed = end.Sub(w.start)
	return w
}

// subWindow is the slice length the serving window is cut into; rps and
// sim_mips are medians over slices.
const subWindow = time.Second

// serveStats summarizes a window's end-to-end numbers.
type serveStats struct {
	rps, mips, p50, p99 float64
	samples             int     // ok requests the latency quantiles pool
	steal               float64 // mean host steal share
	used, slices        int     // slices kept, of all complete ones
}

// summarize cuts the window into subWindow slices by completion time
// and keeps the slices the host left undisturbed (quietSlices). rps and
// sim_mips are the medians of the kept slices' rates; p50 and p99 are
// quantiles of every ok request's client latency pooled over the kept
// slices, so a tail event counts however few slices it touches. Only ok
// requests count (failures are reported through failed_share).
func summarize(sh serveShape, exp map[string]faasExp, w windowRun) serveStats {
	n := min(int(w.elapsed/subWindow), len(w.steal))
	lat := make([][]float64, n)
	insts := make([]float64, n)
	for _, s := range w.samples {
		i := int(s.sent.Add(s.lat).Sub(w.start) / subWindow)
		if !s.ok || i >= n {
			continue
		}
		lat[i] = append(lat[i], ms(s.lat))
		insts[i] += float64(exp[sh.keys[s.key].kernel].Insts)
	}
	var rps, mips, pooled []float64
	used := quietSlices(w.steal[:n])
	for _, i := range used {
		rps = append(rps, float64(len(lat[i]))/subWindow.Seconds())
		mips = append(mips, insts[i]/subWindow.Seconds()/1e6)
		pooled = append(pooled, lat[i]...)
	}
	return serveStats{rps: median(rps), mips: median(mips),
		p50: quantile(pooled, 0.5), p99: quantile(pooled, 0.99), samples: len(pooled),
		steal: mean(w.steal[:n]), used: len(used), slices: n}
}

// topUp drives the clients in an untimed closed loop until the peak-RSS
// probe has taken its reading, and returns the outcome tally.
func topUp(cs []*client, p *rssProbe) tally {
	tallies := make([]tally, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for !p.taken() {
				c.do(c.sh.draw(c.rng), &tallies[i])
			}
		}(i, c)
	}
	wg.Wait()
	var t tally
	for _, x := range tallies {
		t.add(x)
	}
	return t
}

func runServe(o options, sh serveShape) (*run, error) {
	// faasd's defaults: telemetry counters and per-request spans on.
	telemetry.SetEnabled(true)
	telemetry.SetSpansEnabled(true)
	// Construct setupReps times; keep the last system, median the times.
	var setups []float64
	var sys *system
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = newSystem(sh, o.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	exp := map[string]faasExp{}
	for _, f := range sys.exp.FaaS {
		exp[f.Kernel] = f
	}
	transport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	rss := &rssProbe{budget: sh.rssAfter}
	var cs []*client
	for i := 0; i < clients; i++ {
		cs = append(cs, &client{id: i, hc: hc, base: sys.base, sh: sh, exp: exp, rss: rss, phases: o.trace,
			rng: stats.NewRNG(o.seed*0x9e3779b97f4a7c15 + uint64(i) + 1)})
	}

	r := &run{m: newMetrics(o.trace)}
	d := o.window
	if o.trace {
		// An untraced and a traced window share the run's length.
		d = max(d/2, subWindow)
	}
	total := window(cs, warmupWindow).tally
	w := window(cs, d)
	total.add(w.tally)
	untraced := summarize(sh, exp, w)
	fmt.Printf("window: %d ok requests; %d of %d one-second slices kept (rate medians), %d latency samples pooled; host steal share %.4f\n",
		w.tally.ok, untraced.used, untraced.slices, untraced.samples, untraced.steal)
	var ws windowCounters
	if o.trace {
		// The untraced window above is the overhead reference; the
		// traced window below is where the layers are read from.
		ws = readCounters(sys)
		sys.hlog.on.Store(true)
		mem := startMem()
		w = window(cs, d)
		mem.report(r.m)
		sys.hlog.on.Store(false)
		total.add(w.tally)
		ws = readCounters(sys).minus(ws)
	} else if !rss.taken() {
		total.add(topUp(cs, rss))
	}
	sys.close()
	r.attempted, r.failed = total.offered, total.offered-total.ok
	for _, c := range cs {
		for _, e := range c.errs {
			r.problem("client %d: %s", c.id, e)
		}
	}
	checkConservation(r, sys, total)

	if !o.trace {
		r.m.set("setup_s", median(setups))
		r.m.set("sim_mips", untraced.mips)
		r.m.set("rps", untraced.rps)
		r.m.set("p50_ms", untraced.p50)
		r.m.set("p99_ms", untraced.p99)
		r.m.set("peak_rss_mb", rss.value())
		return r, nil
	}
	traced := summarize(sh, exp, w)
	r.m.set("trace.overhead_pct", (untraced.rps-traced.rps)/untraced.rps*100)
	tr := newChromeTrace(w.start)
	serveLayers(r, sh, sys, w.samples, ws, tr)
	probeFaaS(r, sys.irBuild)
	probePlacement(r, tr)
	path, err := tr.write(o)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace %s\n", path)
	return r, nil
}

// checkConservation asserts offered = ok + shed + failed at the client,
// at the router and at every worker, and that the layers agree on how
// many requests passed between them. Any gap fails the run.
func checkConservation(r *run, sys *system, c tally) {
	if c.offered != c.ok+c.shed+c.failed {
		r.problem("client: offered %d != ok %d + shed %d + failed %d", c.offered, c.ok, c.shed, c.failed)
	}
	var reqs, completed uint64
	for i, srv := range sys.servers {
		st := srv.Stats()
		if st.Requests != st.Completed+st.Shed+st.Timeouts+st.Failed {
			r.problem("worker %d: requests %d != completed %d + shed %d + timeouts %d + failed %d",
				i, st.Requests, st.Completed, st.Shed, st.Timeouts, st.Failed)
		}
		reqs += st.Requests
		completed += st.Completed
	}
	if completed != uint64(c.ok) {
		r.problem("workers completed %d requests, client saw %d ok", completed, c.ok)
	}
	offered := uint64(c.offered)
	if sys.router != nil {
		get := func(n string) uint64 { return sys.routerReg.Counter("cluster.router." + n).Load() }
		if get("requests") != offered {
			r.problem("router saw %d requests, client offered %d", get("requests"), offered)
		}
		if get("requests") != get("proxied")+get("no_worker") {
			r.problem("router: requests %d != proxied %d + no_worker %d", get("requests"), get("proxied"), get("no_worker"))
		}
		offered = get("proxied")
	}
	if reqs != offered {
		r.problem("workers saw %d requests, %d were sent to them", reqs, offered)
	}
}

// windowCounters are the registry counters the traced window reads as
// deltas.
type windowCounters struct {
	warmHits, warmMisses, routed, diverted, failovers float64
}

func readCounters(sys *system) windowCounters {
	var w windowCounters
	for _, reg := range sys.regs {
		w.warmHits += float64(reg.Counter("server.warm.hits").Load())
		w.warmMisses += float64(reg.Counter("server.warm.misses").Load())
	}
	if sys.routerReg != nil {
		w.routed = float64(sys.routerReg.Counter("cluster.router.requests").Load())
		w.diverted = float64(sys.routerReg.Counter("cluster.router.diverted").Load())
		w.failovers = float64(sys.routerReg.Counter("cluster.router.failovers").Load())
	}
	return w
}

func (w windowCounters) minus(o windowCounters) windowCounters {
	return windowCounters{w.warmHits - o.warmHits, w.warmMisses - o.warmMisses,
		w.routed - o.routed, w.diverted - o.diverted, w.failovers - o.failovers}
}

// serveLayers derives the serving per-layer metrics from the traced
// window: it joins each client sample with its worker handler record by
// X-Trace-Id, splits client latency into router hop, attributed phases
// and the unattributed rest, and lays the joined spans out in the trace.
func serveLayers(r *run, sh serveShape, sys *system, samples []sample, ws windowCounters, tr *chromeTrace) {
	m := r.m
	tr.process(pidClient, "perfbench client")
	for i := range sys.servers {
		tr.process(pidWorker+i, fmt.Sprintf("worker %d (handler + serve phases)", i))
	}
	var handler, hop, unattributed []float64
	phases := map[string][]float64{}
	byBackend := map[string][]float64{}
	sys.hlog.mu.Lock()
	recs := sys.hlog.recs
	sys.hlog.mu.Unlock()
	for _, s := range samples {
		if !s.ok {
			continue
		}
		k := sh.keys[s.key]
		byBackend[k.backend] = append(byBackend[k.backend], ms(s.lat))
		h, found := recs[s.traceID]
		if !found {
			r.problem("request %s: no worker handler record", s.traceID)
			continue
		}
		handler = append(handler, us(h.dur))
		var hopD time.Duration
		if sys.router != nil {
			hopD = s.lat - h.dur
			hop = append(hop, us(hopD))
		}
		var attributed float64
		for _, p := range servedPhases {
			v := s.phases[p] // absent = the phase took no time
			attributed += v
			phases[p] = append(phases[p], v)
		}
		unattributed = append(unattributed, us(s.lat-hopD)-attributed)

		args := map[string]string{"trace_id": s.traceID, "kernel": k.kernel, "backend": k.backend, "scheme": k.scheme}
		tr.span("request", "client", pidClient, s.conn, s.sent, s.lat, args)
		if sys.router != nil {
			tr.span("router_hop", "cluster", pidClient, clients+s.conn, s.sent, hopD, args)
		}
		tr.span("handler", "server", pidWorker+h.worker, s.conn, h.start, h.dur, args)
		at := h.start
		for _, p := range servedPhases {
			d := time.Duration(s.phases[p] * 1e3)
			tr.span(p, "serve", pidWorker+h.worker, s.conn, at, d, args)
			at = at.Add(d)
		}
	}
	m.set("server.handler_p50_us", quantile(handler, 0.5))
	m.set("server.handler_p99_us", quantile(handler, 0.99))
	m.set("cluster.hop_p50_us", quantile(hop, 0.5))
	m.set("cluster.hop_p99_us", quantile(hop, 0.99))
	m.set("client.unattributed_p50_us", quantile(unattributed, 0.5))
	for _, p := range servedPhases {
		m.set("server.phase."+p+".p50_us", quantile(phases[p], 0.5))
		m.set("server.phase."+p+".p99_us", quantile(phases[p], 0.99))
	}
	for b, xs := range byBackend {
		m.set("client.p50_ms."+b, quantile(xs, 0.5))
	}
	if n := ws.warmHits + ws.warmMisses; n > 0 {
		m.set("server.warm_hit_share", ws.warmHits/n)
	}
	if ws.routed > 0 {
		m.set("cluster.divert_share", ws.diverted/ws.routed)
	}
	m.set("cluster.failovers", ws.failovers)
	var st server.Stats
	for _, srv := range sys.servers {
		x := srv.Stats()
		st.Shed += x.Shed
		st.Timeouts += x.Timeouts
		st.Failed += x.Failed
	}
	m.set("server.shed", float64(st.Shed))
	m.set("server.timeouts", float64(st.Timeouts))
	m.set("server.failed", float64(st.Failed))
}
