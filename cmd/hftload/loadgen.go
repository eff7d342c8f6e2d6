package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request's fate. Times are offsets from the loop's
// start; sched is the send time the schedule asked for (in the closed
// loop, which has no schedule, the send time itself), sent the moment
// the request went out and done the moment the last byte of its answer
// was in, before the harness checked it.
type outcome struct {
	sched, sent, done time.Duration
	cpu               time.Duration // the process's CPU time from sent to done
	err               error         // transport failure, non-200, wrong answer, or errNotSent
	wrong             bool          // err is a wrong answer
	replica           string
	gen               int64  // X-Corpus-Generation, when the fleet sets it
	body              []byte // kept only for requests re-checked later
}

// errNotSent marks a request the paced loop never sent because the
// run's time was up before its turn came.
var errNotSent = errors.New("not sent: the run's time was up")

func (o outcome) unsent() bool { return errors.Is(o.err, errNotSent) }

// latency is the request's latency from the moment it was sent until
// its answer was in, or +Inf for a failed request.
func (o outcome) latency() float64 {
	if o.err != nil {
		return inf
	}
	return ms(o.done - o.sent)
}

// wait is how long, in ms, the request waited behind the one before
// it past its scheduled send time.
func (o outcome) wait() float64 { return ms(o.sent - o.sched) }

// exchanger sends requests to one target and judges each answer.
type exchanger struct {
	base  string
	check func(request, http.Header, []byte) error
	span  func(i int) bool // send X-Bench-Span; nil sends none
	keep  func(i int) bool // keep the body; nil keeps none
}

// newClient returns a client limited to one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// exchange sends request i and fills every field but sched, with times
// from start.
func (x *exchanger) exchange(c *http.Client, start time.Time, i int, r request) outcome {
	var o outcome
	req, err := http.NewRequest(http.MethodGet, x.base+r.uri(), nil)
	if err != nil {
		o.sent = time.Since(start)
		o.done, o.err = o.sent, err
		return o
	}
	if x.span != nil && x.span(i) {
		req.Header.Set(spanHeader, strconv.Itoa(i))
	}
	cpu0 := cpuTime()
	o.sent = time.Since(start)
	resp, err := c.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = time.Since(start)
	o.cpu = cpuTime() - cpu0
	if resp == nil {
		o.err = err
		return o
	}
	o.replica = resp.Header.Get("X-Fleet-Replica")
	o.gen, _ = strconv.ParseInt(resp.Header.Get("X-Corpus-Generation"), 10, 64)
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s: status %d", r.uri(), resp.StatusCode)
	default:
		if err := x.check(r, resp.Header, body); err != nil {
			o.err, o.wrong = err, true
		}
	}
	if x.keep != nil && x.keep(i) {
		o.body = body
	}
	return o
}

// pacedLoop sends reqs[i] at sched[i] after start, one at a time over
// one keep-alive connection: a request whose time comes while the one
// before it is still out goes as soon as that answer is in. onMeasure
// runs just before request measured, the first of the measured window,
// is due. A request whose turn comes after cutoff is not sent
// (errNotSent), so a stalled host cannot stretch the run without end.
func (x *exchanger) pacedLoop(start time.Time, reqs []request, sched []time.Duration, measured int, cutoff time.Duration, onMeasure func()) []outcome {
	c := newClient()
	defer c.CloseIdleConnections()
	outs := make([]outcome, len(reqs))
	for i, r := range reqs {
		if i == measured {
			onMeasure()
		}
		if d := sched[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if now := time.Since(start); now > cutoff {
			outs[i] = outcome{sched: sched[i], sent: now, done: now, err: errNotSent}
			continue
		}
		outs[i] = x.exchange(c, start, i, r)
		outs[i].sched = sched[i]
	}
	if measured >= len(reqs) {
		onMeasure()
	}
	return outs
}

// closedLoop runs conns senders, each with its own connection, back to
// back over reqs (wrapping) for d: each sends its next request only when
// its previous answer is in.
func (x *exchanger) closedLoop(reqs []request, d time.Duration, conns int) []outcome {
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var mine []outcome
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				o := x.exchange(c, start, -1, reqs[i%len(reqs)])
				o.sched = o.sent
				mine = append(mine, o)
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs
}

// satConns is the closed loop's concurrency: one connection per core.
func satConns() int { return runtime.NumCPU() }
