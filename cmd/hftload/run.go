package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"hftnetview/internal/engine"
	"hftnetview/internal/fleet"
	"hftnetview/internal/serve"
	"hftnetview/internal/synth"
)

// config is one invocation's run settings.
type config struct {
	seed         uint64
	warm         time.Duration // paced at the workload's rate, not recorded
	measure      time.Duration // the measured window
	overtime     time.Duration // sending may run this far past the window
	sat          time.Duration // closed loop for client.sat_rps (traced runs only)
	setups       int           // set-ups timed for setup_s; the last one runs
	trace        bool
	workdir      string // parent of the fleet's store directories
	spansDir     string // where a traced run writes its spans ("" = nowhere)
	publishEvery time.Duration

	// Tests only.
	rate    float64      // overrides every workload's rate when > 0
	corrupt func(oracle) // damages the oracle to prove the check is live
}

// metric is one named, unit-carrying number of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one workload run.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string // human-readable context printed with the metrics
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, finite(v)})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is what every run of one process shares: the names the request
// lists draw from and the hot keys' oracle. It keeps no corpus; the only
// one the harness holds during a run is the rig's base.
type env struct {
	names  corpusNames
	keys   []request
	oracle oracle
}

func newEnv() (*env, error) {
	db, err := synth.Generate()
	if err != nil {
		return nil, err
	}
	e := &env{names: namesOf(db)}
	e.keys = hotKeys(e.names)
	e.oracle, err = buildOracle(db, e.keys)
	return e, err
}

// window is the counters the run diffs across its measured window.
type window struct {
	cpu     time.Duration
	mem     runtime.MemStats
	serve   []serve.ServeStats
	engines []engine.Stats // at the window's end: its totals per replica
	front   fleet.FrontStats
	pulls   []fleet.PullStatus
}

func snapWindow(r *rig, begin bool) window {
	w := window{cpu: cpuTime()}
	runtime.ReadMemStats(&w.mem)
	for _, n := range r.replicas {
		st := n.srv.Stats()
		if begin {
			n.tally.begin(st)
		} else {
			n.tally.observe(st)
			w.engines = append(w.engines, n.tally.total())
		}
		w.serve = append(w.serve, st)
		if n.puller != nil {
			w.pulls = append(w.pulls, n.puller.Status())
		}
	}
	if r.front != nil {
		w.front = r.front.Stats()
	}
	return w
}

// cpuTime is the user plus system CPU time the process — servers, front,
// replication, generator and collector — has run so far. On a guest
// kernel with paravirtual steal accounting it leaves out the time the
// hypervisor gave the VM's cores to other guests, which the wall clock
// counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only for an unknown "who" or a bad buffer address,
	// and RUSAGE_SELF with a local buffer is neither.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload sets the workload up, drives it, checks every answer and
// computes its metrics: the end-to-end set untraced, the per-layer set
// traced.
func runWorkload(cfg config, w workload, e *env) (result, error) {
	res := result{workload: w.name, correct: true}
	if cfg.rate > 0 {
		w.rate = cfg.rate
	}
	orc := e.oracle
	if cfg.corrupt != nil {
		orc = make(oracle, len(e.oracle))
		for k, v := range e.oracle {
			orc[k] = v
		}
		cfg.corrupt(orc)
	}
	newChecker := func() *checker {
		c := &checker{}
		if w.history {
			c.invariants = true
		} else {
			c.oracle = orc
		}
		if w.fleet {
			c.published = &published{}
		}
		return c
	}

	var tr *tracer
	setups := max(1, cfg.setups)
	if cfg.trace {
		tr, setups = &tracer{}, 1
	}
	var r *rig
	var chk *checker
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if r != nil {
			r.close()
		}
		chk = newChecker()
		t0 := time.Now()
		var err error
		if r, err = setup(w, cfg.seed, cfg.workdir, tr, e.keys, chk); err != nil {
			return res, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	runtime.GC() // the discarded set-ups' garbage is not the run's
	defer func() { r.close() }()

	p := makePlan(w, cfg.seed, cfg.warm, cfg.measure)
	x := &exchanger{base: r.target, check: chk.check}
	if tr != nil {
		// Every other request carries a span id, so the untraced half
		// measures, in the same run, what recording spans costs.
		x.span = traced
	}
	if w.history {
		x.keep = func(i int) bool { return p.sampled[i] }
	}

	start := time.Now()
	var pub *publisher
	if w.fleet {
		pub = startPublisher(r, cfg.publishEvery, start)
	}
	defer pub.stop()

	var before window
	var heap *heapSampler
	outs := x.pacedLoop(start, p.reqs, p.sched, p.measured, cfg.warm+cfg.measure+cfg.overtime, func() {
		before = snapWindow(r, true)
		heap = sampleHeap(heapEvery)
	})
	liveHeap := heap.stop()
	after := snapWindow(r, false)

	var satOuts []outcome
	if cfg.trace {
		satOuts = x.closedLoop(satRequests(w, cfg.seed, cfg.sat), cfg.sat, satConns())
	}
	pubs, err := pub.stop()
	if err != nil {
		return res, fmt.Errorf("%s publisher: %w", w.name, err)
	}
	r.close() // the replay and the checks below need only what r recorded

	if w.history {
		if err := recheckSample(p, outs); err != nil {
			return res, err
		}
	}

	measured := outs[p.measured:]
	notSent := 0
	for _, o := range append(append([]outcome(nil), measured...), satOuts...) {
		if o.unsent() {
			notSent++
			continue
		}
		res.attempted++
		if o.err != nil {
			res.failed++
			if o.wrong {
				if res.correct {
					res.note("wrong answer: %v", o.err)
				}
				res.correct = false
			}
		}
	}
	waits := queueWaits(measured)
	res.note("%d measured requests paced at %.0f/s over one connection; p%g is the highest percentile with ≥10 samples beyond it",
		len(waits), w.rate, tailPercentile(len(waits)))
	res.note("wait behind the previous request p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (loadgen.late_ms.p99); %d not sent in time",
		percentile(waits, 50), percentile(waits, 90), percentile(waits, 99), notSent)
	res.note("error_rate %g over %d measured requests", ratio(float64(countFailed(measured)), float64(len(waits))), len(waits))
	if lags := pubLags(pubs, cfg.warm, cfg.measure); len(lags) > 0 {
		res.note("gen_lag_ms %.3f ms: median over %d publishes in the window", median(lags), len(lags))
	}

	if !cfg.trace {
		lat, cpu := latencies(measured), cpuTimes(measured)
		res.add("setup_s", "s", median(setupTimes))
		res.add("cpu_ms_p50", "ms", percentile(cpu, 50))
		res.add("cpu_ms_p90", "ms", percentile(cpu, 90))
		res.add("cpu_ms_per_req", "ms", ratio(ms(after.cpu-before.cpu), float64(len(lat))))
		res.add("heap_mb", "MB", median(liveHeap)/(1<<20))
		res.note("wall-clock latency from send p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (the traced run's client.ms.*)",
			percentile(lat, 50), percentile(lat, 90), percentile(lat, 99))
		res.note("setup_s is the median of %d set-ups", len(setupTimes))
		return res, nil
	}

	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.writeSpans(path); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	rep, err := replay(r, p, outs)
	if err != nil {
		return res, fmt.Errorf("%s layer replay: %w", w.name, err)
	}
	layerMetrics(&res, r, w, cfg, p, outs, satOuts, before, after, pubs, tr, rep)
	res.note("client.sat_rps counts correct answers under %v, closed loop, %d connections, %v", w.limit, satConns(), cfg.sat)
	return res, nil
}

// countFailed counts the sent requests that failed.
func countFailed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.err != nil && !o.unsent() {
			n++
		}
	}
	return n
}

// latencies are the sent requests' latencies in ms, +Inf for a failure.
func latencies(outs []outcome) []float64 {
	var lat []float64
	for _, o := range outs {
		if !o.unsent() {
			lat = append(lat, o.latency())
		}
	}
	return lat
}

// cpuTimes are the sent requests' CPU times in flight in ms, +Inf for a
// failure.
func cpuTimes(outs []outcome) []float64 {
	var out []float64
	for _, o := range outs {
		switch {
		case o.unsent():
		case o.err != nil:
			out = append(out, inf)
		default:
			out = append(out, ms(o.cpu))
		}
	}
	return out
}

// queueWaits are the sent requests' waits behind the request before
// them, in ms.
func queueWaits(outs []outcome) []float64 {
	var w []float64
	for _, o := range outs {
		if !o.unsent() {
			w = append(w, o.wait())
		}
	}
	return w
}

// satRPS is correct answers per second that finished within limit,
// counting only those completed inside the closed loop's window d.
func satRPS(outs []outcome, limit, d time.Duration) float64 {
	n := 0
	for _, o := range outs {
		if o.err == nil && o.done-o.sent <= limit && o.done <= d {
			n++
		}
	}
	return float64(n) / d.Seconds()
}

// inWindow reports whether a publish started inside the measured
// window.
func inWindow(rec pubRecord, warm, measure time.Duration) bool {
	return rec.at >= warm && rec.at < warm+measure
}

func pubLags(pubs []pubRecord, warm, measure time.Duration) []float64 {
	var out []float64
	for _, rec := range pubs {
		if inWindow(rec, warm, measure) && rec.lag > 0 {
			out = append(out, ms(rec.lag))
		}
	}
	return out
}

// recheckSample re-answers apa-history's seeded 1-in-50 sample with a
// fresh engine over a freshly generated corpus after the run, and marks
// each mismatch a wrong answer.
func recheckSample(p plan, outs []outcome) error {
	db, err := synth.Generate()
	if err != nil {
		return err
	}
	eng := engine.New(db)
	idx := make([]int, 0, len(p.sampled))
	for i := range p.sampled {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		if outs[i].err != nil {
			continue
		}
		want, err := expect(eng, p.reqs[i])
		if err != nil {
			return err
		}
		if err := matches(p.reqs[i], outs[i].body, want); err != nil {
			outs[i].err, outs[i].wrong = err, true
		}
		outs[i].body = nil
	}
	return nil
}

// String renders a metric as one output line: name, value, unit.
func (m metric) String() string { return fmt.Sprintf("%-40s %14.6g %s", m.name, m.value, m.unit) }

// heapEvery is how often the measured window samples the live heap.
const heapEvery = 250 * time.Millisecond

// heapSampler reads the live heap — what the last garbage collection
// found reachable, from runtime/metrics, so sampling forces no
// collection — on a ticker until stopped.
type heapSampler struct {
	done    chan struct{}
	stopped chan struct{}
	samples []float64
}

func sampleHeap(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{}), stopped: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.stopped)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the samples, in bytes.
func (h *heapSampler) stop() []float64 {
	close(h.done)
	<-h.stopped
	return h.samples
}
