package core

import (
	"runtime"
	"sync"

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

// SnapshotsParallel resolves reqs through p.Snapshot with a bounded
// worker pool, preserving request order. Providers whose Snapshot is
// concurrency-safe can use it as their Snapshots implementation.
func SnapshotsParallel(p SnapshotProvider, reqs []SnapshotRequest) ([]*Network, error) {
	nets := make([]*Network, len(reqs))
	errs := make([]error, len(reqs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				nets[i], errs[i] = p.Snapshot(reqs[i])
			}
		}()
	}
	for i := range reqs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nets, nil
}
