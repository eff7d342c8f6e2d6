package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// SnapshotRequest identifies one reconstruction: a licensee set (a
// union network when more than one name is given), the as-of date, the
// data centers to attach fiber tails for, and the options. It is the
// cache-key domain of the snapshot engine: two requests that normalize
// to the same (licensee set, date, DC set, options fingerprint)
// describe the same snapshot.
type SnapshotRequest struct {
	// Licensees names the filing entities whose licenses form the
	// network; one entry is the common single-licensee case, and the
	// empty string means every licensee in the database.
	Licensees []string
	Date      uls.Date
	DCs       []sites.DataCenter
	Opts      Options
}

// SnapshotProvider supplies reconstructed network snapshots. The
// one-shot DirectProvider rebuilds on every call; the snapshot engine
// (internal/engine) memoizes, coalesces concurrent requests, and fans
// batches out across a bounded worker pool. Implementations must be
// safe for concurrent use. The networks they return are shared and
// read-only: a provider may hand the same network, memoized route and
// APA answers included, to any number of concurrent callers, and
// callers must not modify it.
type SnapshotProvider interface {
	// DB returns the license database the snapshots are built from.
	DB() *uls.Database
	// Snapshot returns the network described by the request.
	Snapshot(req SnapshotRequest) (*Network, error)
	// Snapshots resolves a batch of requests, in order; independent
	// reconstructions may proceed in parallel. It fails on the first
	// error encountered.
	Snapshots(reqs []SnapshotRequest) ([]*Network, error)
}

// directProvider is the uncached SnapshotProvider: every Snapshot call
// reconstructs from the database.
type directProvider struct {
	db *uls.Database
}

// DirectProvider returns an uncached SnapshotProvider over db. It is
// the oracle the memoizing engine is tested and benchmarked against,
// and the reconstruction the engine runs on a miss.
func DirectProvider(db *uls.Database) SnapshotProvider {
	return &directProvider{db: db}
}

func (p *directProvider) DB() *uls.Database { return p.db }

func (p *directProvider) Snapshot(req SnapshotRequest) (*Network, error) {
	if len(req.Licensees) > 1 {
		return ReconstructUnion(p.db, req.Licensees, req.Date, req.DCs, req.Opts)
	}
	name := ""
	if len(req.Licensees) == 1 {
		name = req.Licensees[0]
	}
	return Reconstruct(p.db, name, req.Date, req.DCs, req.Opts)
}

func (p *directProvider) Snapshots(reqs []SnapshotRequest) ([]*Network, error) {
	return SnapshotsParallel(p, reqs)
}

// SnapshotsParallel resolves reqs through p.Snapshot in parallel
// (forEach), preserving request order. Providers whose Snapshot is
// concurrency-safe can use it as their Snapshots implementation.
func SnapshotsParallel(p SnapshotProvider, reqs []SnapshotRequest) ([]*Network, error) {
	nets := make([]*Network, len(reqs))
	errs := make([]error, len(reqs))
	forEach(len(reqs), func(i int) {
		nets[i], errs[i] = p.Snapshot(reqs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nets, nil
}

// forEach runs f(i) for every i in [0, n) and returns when all have
// finished. The caller works through the indices itself, claiming each
// from a shared counter, and up to GOMAXPROCS−1 helper goroutines claim
// from the same counter; so a batch of cheap items (memo hits,
// memoized routes) finishes on the caller before a helper is even
// scheduled, and a batch of expensive ones still uses every core. The
// caller waits for the items, not for the helpers: a helper that starts
// late finds nothing left and exits.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
			wg.Done()
		}
	}
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		go work()
	}
	work()
	wg.Wait()
}
