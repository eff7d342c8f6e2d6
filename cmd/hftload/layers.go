package main

import (
	"fmt"
	"slices"
	"time"

	"hftnetview/internal/engine"
	"hftnetview/internal/serve"
	"hftnetview/internal/uls"
)

// traced reports whether paced-loop request i carried a span id.
func traced(i int) bool { return i >= 0 && i%2 == 0 }

// replayed is the layer replay's account of the measured window.
type replayed struct {
	split map[int]layers // traced measured request → its layer split
	calls []float64      // µs per single snapshot lookup, measured window
	// first holds the split of the first request each post-swap
	// generation served on each replica, measured window.
	first []layers
}

// replay re-executes the run's request sequence in-process and one at a
// time, as the paced loop sent it: set-up's hot keys back to back, then
// every answered request of the loop at the offset it was sent at. Back
// to back, with no idle gap for the collector to catch up in or for the
// caches to go cold, the replayed layers of hot-tables ran 10–30% faster
// than in the HTTP pass they are set against. Each replica generation
// that answered in the HTTP pass gets its own fresh engine, configured as
// a replica configures its own, over that generation's corpus, rebuilt
// before the replay starts: every memo fill, delta replay and rebuild
// the replicas went through happens again, now timed per layer.
func replay(r *rig, p plan, outs []outcome) (*replayed, error) {
	corpora := make(map[int64]*uls.Database)
	for _, o := range append(slices.Clone(r.touched), outs...) {
		if _, ok := corpora[o.gen]; ok || o.err != nil {
			continue
		}
		db, err := r.corpusOf(o.gen)
		if err != nil {
			return nil, err
		}
		corpora[o.gen] = db
	}
	rebuildTimeout := serve.New(serve.Config{}).Config().RebuildTimeout
	type current struct {
		gen int64
		eng *engine.Engine
	}
	live := make(map[string]*current) // replica → its newest generation's engine
	baseGen := r.touched[0].gen
	// resolve picks the engine o was answered by, in dispatch order.
	resolve := func(o outcome) (*engine.Engine, bool) {
		cur := live[o.replica]
		if cur != nil && cur.gen == o.gen {
			return cur.eng, false
		}
		swapped := o.gen > baseGen && (cur == nil || o.gen > cur.gen)
		cur = &current{gen: o.gen, eng: engine.New(corpora[o.gen], engine.WithRebuildTimeout(rebuildTimeout))}
		live[o.replica] = cur
		return cur.eng, swapped
	}
	for j, o := range r.touched {
		eng, _ := resolve(o)
		if _, err := (&layerClock{eng: eng}).replayOne(r.keys[j]); err != nil {
			return nil, fmt.Errorf("set-up %s: %w", r.keys[j].uri(), err)
		}
	}

	out := &replayed{split: make(map[int]layers)}
	start := time.Now()
	for i, o := range outs {
		if o.err != nil {
			continue // a never-answered request ran nothing to replay
		}
		if d := o.sent - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		eng, swapped := resolve(o)
		c := &layerClock{eng: eng}
		l, err := c.replayOne(p.reqs[i])
		if err != nil {
			return nil, fmt.Errorf("request %d %s: %w", i, p.reqs[i].uri(), err)
		}
		if i < p.measured {
			continue
		}
		if traced(i) {
			out.split[i] = l
			for _, d := range c.calls {
				out.calls = append(out.calls, float64(d)/float64(time.Microsecond))
			}
		}
		if swapped {
			out.first = append(out.first, l)
		}
	}
	return out, nil
}

// layerMetrics computes a traced run's per-layer metrics. Spans come
// from the HTTP pass, layer splits from the replay, counters from the
// public Stats()/Status() snapshots around the measured window.
func layerMetrics(res *result, r *rig, w workload, cfg config, p plan, outs, satOuts []outcome,
	before, after window, pubs []pubRecord, tr *tracer, rep *replayed) {
	spans := tr.byLayer()
	measured := outs[p.measured:]
	n := float64(len(latencies(measured)))
	per1k := func(x float64) float64 { return ratio(x*1000, n) }
	replicaOf := func(o outcome) string {
		if o.replica != "" {
			return o.replica
		}
		return r.replicas[0].name
	}

	// Join the HTTP pass's spans with the replay's split, request by
	// request.
	var serveMs, selfMs, cover, frontMs, frontSelf []float64
	var coreMs, engMs, renderMs, renderBytes []float64
	var sumServe, sumCore, sumEng, sumRender, sumSelf, sumFrontSelf float64
	plain := 0
	for k, o := range measured {
		i := p.measured + k
		if !traced(i) {
			plain++
			continue
		}
		l, replayedOK := rep.split[i]
		if replayedOK {
			coreMs = append(coreMs, ms(l.core))
			engMs = append(engMs, ms(l.engine))
			renderMs = append(renderMs, ms(l.render))
			renderBytes = append(renderBytes, float64(l.bytes))
		}
		sv, ok := spans["serve"][i][replicaOf(o)]
		if !ok {
			continue
		}
		s := ms(sv.dur())
		serveMs = append(serveMs, s)
		if f, ok := spans["fleet.front"][i]["front"]; ok {
			fm := ms(f.dur())
			frontMs = append(frontMs, fm)
			frontSelf = append(frontSelf, fm-s)
			sumFrontSelf += fm - s
		}
		if !replayedOK {
			continue
		}
		inner := ms(l.engine + l.core + l.render)
		selfMs = append(selfMs, s-inner)
		cover = append(cover, ratio(inner, s))
		sumServe += s
		sumCore += ms(l.core)
		sumEng += ms(l.engine)
		sumRender += ms(l.render)
		sumSelf += s - inner
	}

	lat := latencies(measured)
	res.add("client.ms.p50", "ms", percentile(lat, 50))
	res.add("client.ms.p90", "ms", percentile(lat, 90))
	res.add("client.ms.p99", "ms", percentile(lat, 99))
	res.add("client.sat_rps", "1/s", satRPS(satOuts, w.limit, cfg.sat))

	res.add("core.ms.p50", "ms", percentile(coreMs, 50))
	res.add("core.ms.p99", "ms", percentile(coreMs, 99))
	res.add("core.share", "ratio", ratio(sumCore, sumServe))

	var eng engine.Stats
	for _, t := range after.engines {
		eng = addStats(eng, t, 1)
		eng.Entries += t.Entries
	}
	lookups := float64(eng.Hits + eng.Misses + eng.Coalesced)
	res.add("engine.ms.p50", "ms", percentile(engMs, 50))
	res.add("engine.ms.p99", "ms", percentile(engMs, 99))
	res.add("engine.share", "ratio", ratio(sumEng, sumServe))
	res.add("engine.calls_per_req", "count", ratio(lookups, n))
	res.add("engine.call_us.p50", "us", percentile(rep.calls, 50))
	res.add("engine.hit_ratio", "ratio", ratio(float64(eng.Hits), lookups))
	res.add("engine.delta_hit_ratio", "ratio", ratio(float64(eng.DeltaHits), lookups))
	res.add("engine.coalesced_per_1k", "count", per1k(float64(eng.Coalesced)))
	res.add("engine.rebuilds_per_1k", "count", per1k(float64(eng.Rebuilds)))
	res.add("engine.events_replayed_per_rebuild", "count", ratio(float64(eng.EventsReplayed), float64(eng.Rebuilds)))
	res.add("engine.entries", "count", float64(eng.Entries))

	res.add("serve.render_ms.p50", "ms", percentile(renderMs, 50))
	res.add("serve.render_bytes.p50", "bytes", percentile(renderBytes, 50))
	res.add("serve.render.share", "ratio", ratio(sumRender, sumServe))

	var shed, rejected, failures int64
	for k := range r.replicas {
		shed += after.serve[k].Shed - before.serve[k].Shed
		rejected += after.serve[k].BreakerReject - before.serve[k].BreakerReject
		failures += after.serve[k].Failures - before.serve[k].Failures
	}
	res.add("serve.ms.p50", "ms", percentile(serveMs, 50))
	res.add("serve.ms.p99", "ms", percentile(serveMs, 99))
	res.add("serve.self_ms.p50", "ms", percentile(selfMs, 50))
	res.add("serve.self.share", "ratio", ratio(sumSelf, sumServe))
	res.add("serve.shed_per_1k", "count", per1k(float64(shed)))
	res.add("serve.breaker_rejected", "count", float64(rejected))
	res.add("serve.engine_failures", "count", float64(failures))

	frontReqs := float64(after.front.Requests - before.front.Requests)
	res.add("fleet.front.ms.p50", "ms", percentile0(frontMs, 50))
	res.add("fleet.front.ms.p99", "ms", percentile0(frontMs, 99))
	res.add("fleet.front.self_ms.p50", "ms", percentile0(frontSelf, 50))
	res.add("fleet.front.self_ms.p99", "ms", percentile0(frontSelf, 99))
	res.add("fleet.front.attempts_per_req", "count", ratio(float64(after.front.Proxied-before.front.Proxied), frontReqs))
	res.add("fleet.front.hedged_per_1k", "count", ratio(float64(after.front.Hedged-before.front.Hedged)*1000, frontReqs))
	res.add("fleet.front.retried_per_1k", "count", ratio(float64(after.front.Retried-before.front.Retried)*1000, frontReqs))
	res.add("fleet.front.shed", "count", float64(after.front.Shed-before.front.Shed))

	var saves, pulls, manifests, segments, installs, lags []float64
	for _, rec := range pubs {
		if !inWindow(rec, cfg.warm, cfg.measure) {
			continue
		}
		saves = append(saves, ms(rec.save))
		if rec.lag > 0 {
			lags = append(lags, ms(rec.lag))
		}
		for _, pr := range rec.pulls {
			pulls = append(pulls, ms(pr.dur))
			manifests = append(manifests, ms(pr.manifest))
			segments = append(segments, ms(pr.segments))
			installs = append(installs, ms(pr.dur-pr.manifest-pr.segments))
		}
	}
	var wire, fetched, reused, installed float64
	for k := range after.pulls {
		wire += float64(after.pulls[k].BytesFetched - before.pulls[k].BytesFetched)
		fetched += float64(after.pulls[k].SegmentsFetched - before.pulls[k].SegmentsFetched)
		reused += float64(after.pulls[k].ReusedSegments - before.pulls[k].ReusedSegments)
		installed += float64(after.pulls[k].Installs - before.pulls[k].Installs)
	}
	firstMs := firstAfterSwap(r, outs, p.measured)
	var firstEng, firstTotal float64
	for _, l := range rep.first {
		firstEng += ms(l.engine)
		firstTotal += ms(l.engine + l.core + l.render)
	}
	res.add("store.save_ms.p50", "ms", percentile0(saves, 50))
	res.add("fleet.puller.ms.p50", "ms", percentile0(pulls, 50))
	res.add("fleet.puller.ms.max", "ms", percentile0(pulls, 100))
	res.add("fleet.puller.manifest_ms.p50", "ms", percentile0(manifests, 50))
	res.add("fleet.puller.segment_ms.p50", "ms", percentile0(segments, 50))
	res.add("fleet.puller.install_ms.p50", "ms", percentile0(installs, 50))
	res.add("fleet.puller.wire_kb_per_gen", "KiB", ratio(wire/1024, installed))
	res.add("fleet.puller.reused_ratio", "ratio", ratio(reused, reused+fetched))
	res.add("fleet.gen_lag_ms", "ms", percentile0(lags, 50))
	res.add("fleet.swap.first_req_ms.p50", "ms", percentile0(firstMs, 50))
	res.add("fleet.swap.first_req.engine_share", "ratio", ratio(firstEng, firstTotal))

	res.add("go.alloc_kb_per_req", "KiB", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, n))
	res.add("go.gc_per_1k_req", "count", per1k(float64(after.mem.NumGC-before.mem.NumGC)))

	res.add("loadgen.late_ms.p99", "ms", percentile(queueWaits(measured), 99))
	res.add("loadgen.sent", "count", n)
	res.add("trace.overhead", "ratio", overhead(p, measured))
	res.add("trace.coverage", "ratio", median(cover))

	res.note("%d traced requests joined to their replayed split; trace.overhead compares them with the %d untraced requests of the same run",
		len(cover), plain)
	names := []string{"engine", "core", "serve.render", "serve.self", "fleet.front.self"}
	times := []float64{sumEng, sumCore, sumRender, sumSelf, sumFrontSelf}
	top := 0
	for i := range times {
		if times[i] > times[top] {
			top = i
		}
	}
	res.note("dominant layer of a %s request: %s (%.0f%% of its time in the front and replica)",
		w.name, names[top], 100*ratio(times[top], sumServe+sumFrontSelf))
	if len(rep.first) > 0 {
		name := "engine"
		if firstEng < firstTotal-firstEng {
			name = "core+render"
		}
		res.note("dominant layer of the first request after a swap: %s (engine %.0f%% of %d first requests' replayed time)",
			name, 100*ratio(firstEng, firstTotal), len(rep.first))
	}
}

// overhead is the cost of recording spans, from the two halves of one
// run: per endpoint, the traced requests' p50 latency over the
// untraced ones', averaged with each endpoint's share of the requests
// as its weight, minus 1. Comparing within an endpoint keeps the mix's
// own spread — a /v1/apa costs ten snapshots — out of the ratio.
func overhead(p plan, measured []outcome) float64 {
	type halves struct{ traced, plain []float64 }
	by := make(map[endpoint]*halves)
	for k, o := range measured {
		i := p.measured + k
		h := by[p.reqs[i].ep]
		if h == nil {
			h = &halves{}
			by[p.reqs[i].ep] = h
		}
		if traced(i) {
			h.traced = append(h.traced, o.latency())
		} else {
			h.plain = append(h.plain, o.latency())
		}
	}
	var sum, weight float64
	for _, h := range by {
		if len(h.traced) == 0 || len(h.plain) == 0 {
			continue
		}
		n := float64(len(h.traced) + len(h.plain))
		sum += n * ratio(median(h.traced), median(h.plain))
		weight += n
	}
	return ratio(sum, weight) - 1
}

// percentile0 is percentile that reads 0 for a layer that did no work
// in this workload (the fleet layers outside fleet-churn).
func percentile0(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, p)
}

// firstAfterSwap is the client latency, from send, of the first answer
// each replica gave from each generation published after set-up, for
// the swaps whose first answer fell in the measured window.
func firstAfterSwap(r *rig, outs []outcome, measured int) []float64 {
	baseGen := r.touched[0].gen
	first := make(map[string]int)
	for i, o := range outs {
		if o.err != nil || o.gen <= baseGen {
			continue
		}
		key := fmt.Sprintf("%s/%d", o.replica, o.gen)
		if j, ok := first[key]; !ok || o.sent < outs[j].sent {
			first[key] = i
		}
	}
	var out []float64
	for _, i := range first {
		if i >= measured {
			out = append(out, ms(outs[i].done-outs[i].sent))
		}
	}
	return out
}
