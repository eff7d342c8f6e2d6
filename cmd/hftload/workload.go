package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/url"
	"time"

	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// endpoint is one /v1 query surface.
type endpoint int

const (
	epSnapshot endpoint = iota
	epRank
	epEvolution
	epAPA
)

// request is one query, fully specified before the run starts: the
// seeded request list is the workload's recorded trace.
type request struct {
	ep       endpoint
	date     uls.Date
	path     sites.Path
	licensee string
	from, to int
}

// uri renders the request exactly as a client sends it.
func (r request) uri() string {
	switch r.ep {
	case epRank:
		return "/v1/rank?date=" + isoDate(r.date)
	case epEvolution:
		return fmt.Sprintf("/v1/evolution?licensee=%s&path=%s&from=%d&to=%d",
			url.QueryEscape(r.licensee), r.path.Name(), r.from, r.to)
	case epAPA:
		return "/v1/apa?date=" + isoDate(r.date) + "&path=" + r.path.Name()
	default:
		return "/v1/snapshot?date=" + isoDate(r.date) + "&path=" + r.path.Name()
	}
}

func isoDate(d uls.Date) string { return fmt.Sprintf("%04d-%02d-%02d", d.Year, d.Month, d.Day) }

// paperDate is the paper's snapshot date, 1 April 2020.
var paperDate = uls.NewDate(2020, time.April, 1)

// workload is one traffic mix with its scheduled rate and the latency
// limit its saturation throughput is counted under.
type workload struct {
	name  string
	rate  float64       // scheduled requests per second (Poisson)
	limit time.Duration // sat_rps counts only answers faster than this
	fleet bool          // primary + 2 pull replicas behind a front
	// history: keys are unbounded, so answers are checked against the
	// invariants, plus a seeded sample against the oracle after the run;
	// otherwise every answer is checked against the oracle.
	history bool
	draw    func(rng *rand.Rand) request
}

// corpusNames are the licensee sets the mixes draw from.
type corpusNames struct {
	all []string // every licensee in the synthetic corpus (57)
	hft []string // the ten corridor HFT networks of Tables 1–2
}

func namesOf(db *uls.Database) corpusNames {
	var n corpusNames
	n.all = db.Licensees()
	for _, s := range synth.HFTNetworks() {
		n.hft = append(n.hft, s.Name)
	}
	return n
}

// hotMix is the paper-date table mix: 65% Table 1 snapshots over the
// three corridor paths, 20% Table 2 rankings, 15% Fig 1–2 trajectories
// of one HFT network. About 14 distinct keys, every one a memo hit
// after set-up.
func hotMix(n corpusNames) func(*rand.Rand) request {
	paths := sites.CorridorPaths()
	return func(rng *rand.Rand) request {
		switch u := rng.Float64(); {
		case u < 0.65:
			return request{ep: epSnapshot, date: paperDate, path: paths[rng.IntN(len(paths))]}
		case u < 0.85:
			return request{ep: epRank, date: paperDate}
		default:
			return request{ep: epEvolution, licensee: n.hft[rng.IntN(len(n.hft))],
				path: paths[0], from: 2013, to: 2020}
		}
	}
}

// historyFirst and historyLast bound apa-history's uniform date draw.
var (
	historyFirst = uls.NewDate(2013, time.January, 1)
	historyLast  = paperDate
)

// historyMix draws every request at a uniform day of 2013-01-01 …
// 2020-04-01 on a uniform corridor path: 40% /v1/apa, 40% snapshots,
// 20% trajectories of a uniform licensee over a uniform year range.
func historyMix(n corpusNames) func(*rand.Rand) request {
	paths := sites.CorridorPaths()
	days := int(historyLast.Time().Sub(historyFirst.Time()).Hours() / 24)
	return func(rng *rand.Rand) request {
		date := historyFirst.AddDays(rng.IntN(days + 1))
		path := paths[rng.IntN(len(paths))]
		switch u := rng.Float64(); {
		case u < 0.4:
			return request{ep: epAPA, date: date, path: path}
		case u < 0.8:
			return request{ep: epSnapshot, date: date, path: path}
		default:
			a, b := 2013+rng.IntN(8), 2013+rng.IntN(8)
			return request{ep: epEvolution, licensee: n.all[rng.IntN(len(n.all))],
				path: path, from: min(a, b), to: max(a, b)}
		}
	}
}

// workloads are the benchmark's mixes, in their default run order.
func workloads(n corpusNames) []workload {
	return []workload{
		{name: "hot-tables", rate: 70, limit: 25 * time.Millisecond, draw: hotMix(n)},
		{name: "apa-history", rate: 40, limit: 100 * time.Millisecond, history: true, draw: historyMix(n)},
		{name: "fleet-churn", rate: 50, limit: 50 * time.Millisecond, fleet: true, draw: hotMix(n)},
	}
}

// hotKeys are the paper-date tables every set-up requests once: the
// three Table 1 snapshots, the Table 2 ranking, and each HFT network's
// trajectory — exactly the key set of hotMix.
func hotKeys(n corpusNames) []request {
	var out []request
	for _, p := range sites.CorridorPaths() {
		out = append(out, request{ep: epSnapshot, date: paperDate, path: p})
	}
	out = append(out, request{ep: epRank, date: paperDate})
	for _, name := range n.hft {
		out = append(out, request{ep: epEvolution, licensee: name,
			path: sites.CorridorPaths()[0], from: 2013, to: 2020})
	}
	return out
}

// plan is the paced loop's input, derived from the seed alone: the send
// schedule with its requests (warm-up first, then the measured window),
// and which measured requests are re-checked against the oracle after
// the run.
type plan struct {
	sched    []time.Duration // send offsets from the loop's start
	reqs     []request
	measured int          // index of the first measured request
	sampled  map[int]bool // measured indices re-checked after the run
}

// satRequestsPerSecond sizes the closed-loop request list; a sender
// that exhausts it wraps around.
const satRequestsPerSecond = 2000

// satRequests is the closed loop's request list for a loop of length d,
// from a stream of its own. It is built when the closed loop starts: a
// list made with the plan would sit in the measured window's heap, which
// the servers share, and make their collections rarer.
func satRequests(w workload, seed uint64, d time.Duration) []request {
	rng := rngFor(seed, w.name, "saturation")
	out := make([]request, max(1, int(d.Seconds()*satRequestsPerSecond)))
	for i := range out {
		out[i] = w.draw(rng)
	}
	return out
}

// sampleEvery is apa-history's post-run oracle sampling rate.
const sampleEvery = 50

// rngFor derives an independent PCG stream per (seed, workload, use),
// so changing one workload's rate never changes another stream.
func rngFor(seed uint64, name, use string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name + "\x00" + use))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// poissonSchedule returns the arrival offsets of a Poisson process of
// the given rate over [0, d): exponential inter-arrival gaps.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// makePlan builds a workload's paced-loop inputs for one seed.
func makePlan(w workload, seed uint64, warm, measure time.Duration) plan {
	arrivals := rngFor(seed, w.name, "arrivals")
	content := rngFor(seed, w.name, "requests")
	var p plan
	p.sched = poissonSchedule(arrivals, w.rate, warm+measure)
	p.reqs = make([]request, len(p.sched))
	for i := range p.reqs {
		p.reqs[i] = w.draw(content)
		if p.sched[i] < warm {
			p.measured = i + 1
		}
	}
	pick := rngFor(seed, w.name, "oracle-sample")
	p.sampled = make(map[int]bool)
	for i := p.measured; i < len(p.reqs); i++ {
		if pick.IntN(sampleEvery) == 0 {
			p.sampled[i] = true
		}
	}
	return p
}
