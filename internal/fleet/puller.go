package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"hftnetview/internal/serve"
	"hftnetview/internal/store"
)

// maxShipBytes bounds a manifest download or a front's buffered answer;
// a malicious or corrupted peer must not drive an unbounded read.
const maxShipBytes = 256 << 20

// pollJitter stretches each poll sleep by up to this fraction of the
// interval (sleeps are uniform in [Interval, 1.5·Interval]), so a
// restarted fleet's replicas don't poll the primary in lockstep.
const pollJitter = 0.5

// PullerConfig wires one replica's pull loop.
type PullerConfig struct {
	// Primary is the base URL of the primary's shipping endpoints
	// (static wiring; also the seed source before the first successful
	// role resolution when Front is set).
	Primary string
	// Front, when set, makes the source dynamic: each poll resolves the
	// fleet's current source role from the front's /v1/fleet/source and
	// re-targets on change, fenced by the role's monotone epoch — a
	// resolution naming a lower epoch than one already obeyed is
	// refused, so a stale front (or a fenced old primary reappearing
	// behind one) can never re-point this replica at dead state.
	Front string
	// Self is this replica's own base URL; when the resolved source is
	// Self the poll is a no-op — a promoted source's store IS the
	// origin, there is nothing to pull.
	Self string
	// Store is the replica's own crash-safe store; pulled generations
	// are verified and committed here before going live.
	Store *store.Store
	// Server, when non-nil, has each installed generation published as
	// its live corpus, and gains a "pull" section on /statsz.
	Server *serve.Server
	// Interval is the poll cadence (default 2s); each sleep is
	// stretched by up to pollJitter of it.
	Interval time.Duration
	// MaxBackoff caps the exponential backoff consecutive failures
	// build up to (default 8·Interval). One success resets to Interval.
	MaxBackoff time.Duration
	// Client issues the HTTP fetches (default: a client with a 30s
	// timeout). Tests inject fault transports here.
	Client *http.Client
	// Keep is how many local generations survive the post-install GC
	// (default 3; the previous generation is always retained as the
	// fallback corpus).
	Keep int
	// MaxBytesPerSec caps every segment download, the pull loop's and
	// RepairFrom's, with one token bucket (0 = unlimited), so neither
	// can starve live serving. Resumption makes the stretched transfer
	// safe: a pull or repair interrupted mid-budget resumes where it
	// stopped.
	MaxBytesPerSec int64
}

func (c PullerConfig) withDefaults() PullerConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * c.Interval
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Keep <= 0 {
		c.Keep = 3
	}
	return c
}

// PullStatus is the pull loop's account of itself, surfaced on the
// replica's /statsz under "pull".
type PullStatus struct {
	// Attempts counts pulls that found a newer generation and tried to
	// install it; Polls counts every manifest probe.
	Polls    int64 `json:"polls"`
	Attempts int64 `json:"attempts"`
	// Installs counts generations verified, committed, and published.
	Installs int64 `json:"installs"`
	// Rejections counts downloads refused because verification failed
	// — corrupted bytes never went live and never touched disk
	// durably; the previous generation kept serving.
	Rejections int64 `json:"rejections"`
	// Retried counts pulls abandoned because the primary GC'd the
	// generation mid-download (retryable; the next poll starts over
	// from a newer manifest).
	Retried int64 `json:"retried"`
	// Backoffs counts ticks slept beyond the base interval because of
	// consecutive failures — a sick primary shows up here long before
	// it shows up in the error log's volume.
	Backoffs int64 `json:"backoffs"`
	// SegmentsFetched and BytesFetched count wire-level segment
	// transfer, scrub repairs included: what actually crossed the
	// network, the denominator for every saving below.
	SegmentsFetched int64 `json:"segments_fetched"`
	BytesFetched    int64 `json:"bytes_fetched"`
	// Resumed counts segments whose bytes were (partly or wholly)
	// recovered from an earlier interrupted pull instead of
	// re-downloaded — staged partials continued with ranged GETs and
	// verified survivors re-adopted after a restart.
	Resumed int64 `json:"resumed"`
	// ReusedSegments counts segments satisfied by SHA-256 digest from a
	// local committed generation (delta shipping: unchanged segments of
	// generation N+1 never touch the wire).
	ReusedSegments int64 `json:"reused_segments"`
	// BytesSaved totals the bytes resume and reuse kept off the wire.
	BytesSaved int64 `json:"bytes_saved"`
	// ThrottleWaits counts segment reads (pull or repair) the bucket made
	// sleep — nonzero means the budget is actually shaping traffic.
	ThrottleWaits int64 `json:"throttle_waits,omitempty"`
	// Generation is the newest installed store generation id.
	Generation int64 `json:"generation"`
	// Source is the base URL currently replicated from — the static
	// primary, or the front-resolved source role; SourceEpoch is the
	// epoch fence it was adopted under (0 = static wiring).
	Source      string `json:"source,omitempty"`
	SourceEpoch int64  `json:"source_epoch,omitempty"`
	// ConsecutiveFailures counts polls failed since the last clean one
	// — a wedged or re-targeting puller is diagnosable from /statsz
	// without logs.
	ConsecutiveFailures int64 `json:"consecutive_failures,omitempty"`
	// Fenced counts source resolutions refused for naming a lower epoch
	// than one already obeyed; Diverged counts local generations
	// quarantined as dead-branch state after a promotion.
	Fenced   int64 `json:"fenced,omitempty"`
	Diverged int64 `json:"diverged,omitempty"`
	// LastError is the most recent pull failure ("" after a clean
	// poll); LastInstall timestamps the newest install.
	LastError   string `json:"last_error,omitempty"`
	LastInstall string `json:"last_install,omitempty"`
}

// Puller replicates a primary's generations into a local store and
// serves them, and fetches scrub repairs (RepairFrom). Safe for one Run
// loop, one scrubber's repairs and concurrent Status calls.
type Puller struct {
	cfg    PullerConfig
	bucket *byteBucket // nil = unthrottled

	mu         sync.Mutex
	status     PullStatus
	retryAfter time.Duration // shipper's latest Retry-After hint; consumed by nextDelay

	// credited marks segments whose transfer accounting (resumed,
	// reused, fetched) is settled for creditedGen — re-opening the same
	// staging area on a later attempt re-adopts the same files and must
	// not count them again.
	creditedGen int64
	credited    map[string]bool

	// repairHeld is what a cut repair of the segment whose SHA-256 is
	// repairSHA received; the next attempt resumes it.
	repairSHA  string
	repairHeld []byte
}

// NewPuller returns a puller; if cfg.Server is set, its pull status is
// registered on that server's /statsz.
func NewPuller(cfg PullerConfig) *Puller {
	p := &Puller{cfg: cfg.withDefaults()}
	p.bucket = newByteBucket(p.cfg.MaxBytesPerSec)
	p.status.Source = p.cfg.Primary
	if p.cfg.Server != nil {
		p.cfg.Server.RegisterStats("pull", func() any { return p.Status() })
	}
	return p
}

// Status returns a copy of the pull counters.
func (p *Puller) Status() PullStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.status
}

// Run polls until ctx is done. Failures never stop the loop: a
// verification rejection or a transport error is recorded and the next
// tick tries again — but consecutive failures back off exponentially
// (capped, reset by one success), so a fleet of replicas does not
// hammer a primary that is down, and a shipper shedding load with
// Retry-After gets at least the breather it asked for.
func (p *Puller) Run(ctx context.Context) {
	failStreak := 0
	for {
		if _, err := p.PullOnce(ctx); err != nil {
			if ctx.Err() == nil {
				log.Printf("fleet: pull from %s: %v", p.Status().Source, err)
			}
			failStreak++
		} else {
			failStreak = 0
		}
		d := p.nextDelay(failStreak)
		d += time.Duration(rand.Float64() * pollJitter * float64(p.cfg.Interval))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// nextDelay is the base sleep before the next poll: Interval after a
// success, doubling per consecutive failure up to MaxBackoff, and
// never less than the shipper's pending Retry-After hint (the primary
// said when to come back; ignoring it is how retry storms start).
func (p *Puller) nextDelay(failStreak int) time.Duration {
	d := p.cfg.Interval
	for i := 0; i < failStreak; i++ {
		d *= 2
		if d >= p.cfg.MaxBackoff {
			d = p.cfg.MaxBackoff
			break
		}
	}
	p.mu.Lock()
	if p.retryAfter > d {
		d = p.retryAfter
	}
	p.retryAfter = 0
	if d > p.cfg.Interval {
		p.status.Backoffs++
	}
	p.mu.Unlock()
	return d
}

// resolveSource picks the base URL this poll replicates from. Static
// wiring (no Front) is just Primary. Dynamic wiring asks the front for
// the current source role, fenced by its epoch: a resolution naming a
// lower epoch than one already obeyed is counted and refused, a vacant
// role or an unreachable front keeps the last adopted source (its
// failures accrue the ordinary backoff). "" means nothing to pull from
// yet.
func (p *Puller) resolveSource(ctx context.Context) string {
	if p.cfg.Front == "" {
		return p.cfg.Primary
	}
	var info SourceInfo
	ok := false
	if req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.cfg.Front+fleetPrefix+"source", nil); err == nil {
		if resp, err := p.cfg.Client.Do(req); err == nil {
			if resp.StatusCode == http.StatusOK &&
				json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info) == nil {
				ok = true
			}
			resp.Body.Close()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok && info.URL != "" {
		switch {
		case info.Epoch < p.status.SourceEpoch:
			p.status.Fenced++
		case info.URL != p.status.Source || info.Epoch != p.status.SourceEpoch:
			log.Printf("fleet: pull source is now %s (epoch %d)", info.URL, info.Epoch)
			p.status.Source = info.URL
			p.status.SourceEpoch = info.Epoch
		}
	}
	return p.status.Source
}

// PullOnce resolves the current source, probes its newest manifest
// and, if it is ahead of the local store, downloads, verifies,
// installs, and publishes it. It reports whether a new generation went
// live.
func (p *Puller) PullOnce(ctx context.Context) (installed bool, err error) {
	p.bump(func(st *PullStatus) { st.Polls++ })

	src := p.resolveSource(ctx)
	if src == "" {
		p.clearError() // source role vacant, nothing adopted yet
		return false, nil
	}
	if p.cfg.Self != "" && src == p.cfg.Self {
		p.clearError() // we ARE the source; our store is the origin
		return false, nil
	}

	mb, err := p.fetch(ctx, src+shipPrefix+"manifest")
	if err != nil {
		return false, p.fail(err)
	}
	gi, err := store.ParseManifest(mb)
	if err != nil {
		// The manifest itself arrived corrupted or malformed — a
		// verification rejection, same as a bad segment.
		p.bump(func(st *PullStatus) { st.Attempts++; st.Rejections++ })
		return false, p.fail(fmt.Errorf("manifest: %w", err))
	}
	local, err := p.cfg.Store.LatestID()
	if err != nil {
		return false, p.fail(err)
	}
	if gi.ID <= local {
		if p.cfg.Front == "" {
			p.clearError()
			return false, nil // up to date
		}
		return p.reconcile(ctx, src, gi, mb)
	}
	return p.installFrom(ctx, src, gi, mb)
}

// reconcile handles a resolved source whose newest generation does not
// lead the local store. The source is the only member that creates
// generations in its epoch, so local ids beyond the source's newest —
// or a differing corpus digest at the same id — are dead-branch state
// inherited from a fenced, older-epoch source (the old primary's
// unshipped tail). Dead-branch generations are quarantined, never
// deleted, and the source's own newest is installed when ours differs;
// matching digests just mean "up to date".
func (p *Puller) reconcile(ctx context.Context, src string, gi *store.GenInfo, mb []byte) (bool, error) {
	gens, err := p.cfg.Store.List()
	if err != nil {
		return false, p.fail(err)
	}
	for _, g := range gens {
		if g.ID <= gi.ID {
			continue
		}
		if qerr := p.cfg.Store.QuarantineGeneration(g.ID); qerr != nil {
			return false, p.fail(fmt.Errorf("quarantining dead-branch generation %d: %w", g.ID, qerr))
		}
		p.bump(func(st *PullStatus) { st.Diverged++ })
		log.Printf("fleet: quarantined dead-branch generation %d (source %s is at %d, epoch %d)",
			g.ID, src, gi.ID, p.Status().SourceEpoch)
	}
	localDigest, derr := p.cfg.Store.GenDigest(gi.ID)
	switch {
	case derr == nil && localDigest == gi.CorpusSHA256:
		p.clearError()
		return false, nil // same branch, up to date
	case derr == nil, !store.IsRetryable(derr):
		// Same id from a different branch, or a local manifest too
		// corrupt to compare: quarantine ours and take the source's.
		if qerr := p.cfg.Store.QuarantineGeneration(gi.ID); qerr != nil && !store.IsRetryable(qerr) {
			return false, p.fail(fmt.Errorf("quarantining divergent generation %d: %w", gi.ID, qerr))
		}
		p.bump(func(st *PullStatus) { st.Diverged++ })
		log.Printf("fleet: quarantined divergent generation %d, reinstalling from %s", gi.ID, src)
	default:
		// We simply do not hold the source's newest id; install it.
	}
	return p.installFrom(ctx, src, gi, mb)
}

// installFrom downloads, verifies, installs, and publishes gi from src
// through the store's resumable staging area: segments already held
// locally by digest are reused off-wire, partials from an earlier
// interrupted pull are continued with ranged GETs, and every staged
// byte passes the size + SHA-256 ladder before it counts. A pull that
// fails mid-way leaves its verified progress staged on disk; the next
// poll resumes instead of starting over.
func (p *Puller) installFrom(ctx context.Context, src string, gi *store.GenInfo, mb []byte) (bool, error) {
	p.bump(func(st *PullStatus) { st.Attempts++ })
	stg, err := p.cfg.Store.OpenStaging(mb)
	switch {
	case err == nil:
	case errors.Is(err, os.ErrExist):
		p.clearError()
		return false, nil // raced with another installer; already have it
	case errors.Is(err, store.ErrVerify):
		p.bump(func(st *PullStatus) { st.Rejections++ })
		return false, p.fail(err)
	default:
		return false, p.fail(err)
	}
	defer stg.Close()

	// Progress adopted at open — resumed survivors of an interrupted
	// pull plus digest-reused local segments — is bytes the wire never
	// carries. Credit each segment once per generation: a later attempt
	// re-opening the same staging area re-adopts the same files.
	for _, si := range gi.Segments {
		if !stg.Verified(si.Name) || !p.markCredited(gi.ID, si.Name) {
			continue
		}
		reused, sz := stg.Origin(si.Name) == "reused", si.Bytes
		p.bump(func(st *PullStatus) {
			if reused {
				st.ReusedSegments++
			} else {
				st.Resumed++
			}
			st.BytesSaved += sz
		})
	}

	for _, si := range stg.Missing() {
		if stg.ReuseLocal(si) {
			if p.markCredited(gi.ID, si.Name) {
				p.bump(func(st *PullStatus) { st.ReusedSegments++; st.BytesSaved += si.Bytes })
			}
			continue
		}
		if err := p.fetchStagedSegment(ctx, src, gi, si, stg); err != nil {
			switch {
			case errors.Is(err, store.ErrVerify):
				p.bump(func(st *PullStatus) { st.Rejections++ })
			case store.IsRetryable(err):
				// The source swept or re-published the generation
				// mid-pull; the next poll starts from a fresh manifest.
				p.bump(func(st *PullStatus) { st.Retried++ })
			}
			return false, p.fail(err)
		}
	}

	igi, db, err := p.cfg.Store.InstallStaged(stg)
	switch {
	case err == nil:
	case errors.Is(err, store.ErrVerify):
		p.bump(func(st *PullStatus) { st.Rejections++ })
		return false, p.fail(err)
	case errors.Is(err, os.ErrExist):
		p.clearError()
		return false, nil // raced with another installer; already have it
	default:
		return false, p.fail(err)
	}

	if p.cfg.Server != nil {
		p.cfg.Server.PublishStoreGeneration(db, igi)
	}
	p.mu.Lock()
	p.status.Installs++
	p.status.Generation = igi.ID
	p.status.LastInstall = time.Now().UTC().Format(time.RFC3339)
	p.status.LastError = ""
	p.status.ConsecutiveFailures = 0
	p.mu.Unlock()

	// Prune local history; Keep >= 1 plus GC's own last-recoverable
	// guarantee means the fallback corpus always survives.
	if _, err := p.cfg.Store.GC(p.cfg.Keep); err != nil && !errors.Is(err, store.ErrClosed) {
		log.Printf("fleet: post-install gc: %v", err)
	}
	return true, nil
}

// markCredited records that a segment's transfer accounting is settled
// for this generation, reporting whether this call was the first to do
// so. A new generation id resets the set.
func (p *Puller) markCredited(gen int64, name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.creditedGen != gen {
		p.creditedGen = gen
		p.credited = make(map[string]bool)
	}
	if p.credited[name] {
		return false
	}
	p.credited[name] = true
	return true
}

func (p *Puller) bump(f func(*PullStatus)) {
	p.mu.Lock()
	f(&p.status)
	p.mu.Unlock()
}

func (p *Puller) fail(err error) error {
	p.bump(func(st *PullStatus) { st.LastError = err.Error(); st.ConsecutiveFailures++ })
	return err
}

func (p *Puller) clearError() {
	p.bump(func(st *PullStatus) { st.LastError = ""; st.ConsecutiveFailures = 0 })
}

// fetchStagedSegment downloads one segment into the staging area,
// resuming any existing partial with a ranged GET, and runs the
// completion ladder. Errors are ErrVerify for bytes that fail the
// manifest's checks (the poisoned partial is discarded), ErrGenGone
// for a source that moved on mid-pull, anything else a transport
// failure whose partial stays staged for resume.
func (p *Puller) fetchStagedSegment(ctx context.Context, src string, gi *store.GenInfo, si store.SegmentInfo, stg *store.Staging) error {
	off := stg.PartialSize(si.Name)
	if off > si.Bytes {
		// Longer than the manifest promises: poisoned, start over.
		if err := stg.ResetPartial(si.Name); err != nil {
			return err
		}
		off = 0
	}
	if off == si.Bytes {
		// A prior pull landed every byte but was cut before the verify:
		// nothing to fetch, run the ladder directly.
		if err := stg.CompleteSegment(si); err != nil {
			return err
		}
		if p.markCredited(gi.ID, si.Name) {
			p.bump(func(st *PullStatus) { st.Resumed++; st.BytesSaved += off })
		}
		return nil
	}

	body, start, err := p.getSegment(ctx, src, gi.ID, gi.CorpusSHA256, si, off)
	if err != nil {
		if errors.Is(err, store.ErrVerify) {
			stg.ResetPartial(si.Name)
		}
		return err
	}
	defer body.Close()
	if start != off {
		// The source ignored the range (or If-Range says the content
		// moved): restart this segment from byte zero.
		if err := stg.ResetPartial(si.Name); err != nil {
			return err
		}
		off = 0
	}
	w, err := stg.SegmentWriter(si)
	if err != nil {
		return err
	}
	if w.Offset() != off {
		w.Close()
		return fmt.Errorf("fleet: partial for %s moved underfoot (%d != %d)", si.Name, w.Offset(), off)
	}
	_, cpErr := io.Copy(w, body)
	w.Close()
	if cpErr != nil {
		// Torn mid-stream: the partial stays staged for the next pull.
		return fmt.Errorf("fetching segment %s: %w", si.Name, cpErr)
	}
	if err := stg.CompleteSegment(si); err != nil {
		return err
	}
	p.markCredited(gi.ID, si.Name)
	p.bump(func(st *PullStatus) { st.SegmentsFetched++ })
	if off > 0 {
		p.bump(func(st *PullStatus) { st.Resumed++; st.BytesSaved += off })
	}
	return nil
}

// getSegment is the one client for /v1/gen/segment: it asks base for
// segment si of generation gen (corpus digest corpus) from byte off on,
// with the segment digest as If-Range so a source holding other bytes
// answers 200-whole, and checks the branch and content headers before a
// body byte is read. The body starts at the returned offset (off for a
// 206, 0 for a 200) and stops one byte past what the manifest promises,
// so an over-long body fails the size check instead of growing a copy.
// Errors wrap ErrGenGone for a source that swept or re-published the
// generation, ErrVerify for an unusable range.
func (p *Puller) getSegment(ctx context.Context, base string, gen int64, corpus string, si store.SegmentInfo, off int64) (io.ReadCloser, int64, error) {
	url := fmt.Sprintf("%s%ssegment/%d/%s", base, shipPrefix, gen, si.Name)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	if off > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", off))
		req.Header.Set("If-Range", `"`+si.SHA256+`"`)
	}
	resp, err := p.get(req)
	if err != nil {
		return nil, 0, err
	}
	start, h := int64(0), resp.Header
	if resp.StatusCode == http.StatusPartialContent {
		if start, err = parseContentRangeStart(h.Get("Content-Range")); err != nil || start != off {
			err = fmt.Errorf("%w: segment %s: unusable range response %q", store.ErrVerify, si.Name, h.Get("Content-Range"))
		}
	}
	switch d, s := h.Get("X-Gen-Digest"), h.Get("X-Segment-SHA256"); {
	case err != nil:
	case d != "" && d != corpus:
		err = fmt.Errorf("%w: %s is on another branch (corpus %.12s, want %.12s)", store.ErrGenGone, url, d, corpus)
	case s != "" && s != si.SHA256:
		err = fmt.Errorf("%w: %s holds other bytes (segment %.12s, want %.12s)", store.ErrGenGone, url, s, si.SHA256)
	}
	if err != nil {
		resp.Body.Close()
		return nil, 0, err
	}
	return &segmentBody{Closer: resp.Body, r: io.LimitReader(resp.Body, si.Bytes-start+1), p: p, ctx: ctx}, start, nil
}

// parseContentRangeStart extracts the first byte position a 206
// response's Content-Range claims to start at.
func parseContentRangeStart(v string) (start int64, err error) {
	_, err = fmt.Sscanf(v, "bytes %d-", &start)
	return start, err
}

// fetch GETs one shipping URL's whole body.
func (p *Puller) fetch(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.get(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxShipBytes))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	return body, nil
}

// get sends one request to a shipper. A 404 carrying X-Gen-Gone becomes
// the store's retryable ErrGenGone, so the pull can classify it; a
// 503's Retry-After (whole seconds) is kept for nextDelay, since the
// shipper named its price; any status but 200 and 206 is an error.
func (p *Puller) get(req *http.Request) (*http.Response, error) {
	resp, err := p.cfg.Client.Do(req)
	if err != nil || resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent {
		return resp, err
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && resp.Header.Get("X-Gen-Gone") != "" {
		return nil, fmt.Errorf("%w: source swept it mid-pull", store.ErrGenGone)
	}
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if resp.StatusCode == http.StatusServiceUnavailable && err == nil && secs > 0 {
		p.mu.Lock()
		p.retryAfter = time.Duration(secs) * time.Second
		p.mu.Unlock()
	}
	return nil, fmt.Errorf("GET %s: status %d", req.URL, resp.StatusCode)
}
