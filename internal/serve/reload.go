package serve

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"hftnetview/internal/uls"
)

// ReloadOptions governs how a corpus file is (re)ingested before it
// may replace the live generation.
type ReloadOptions struct {
	// Mode is the bulk-ingestion fault policy (default Lenient: skip
	// malformed records, salvage the rest).
	Mode uls.ParseMode
	// MaxErrorRate is the ingestion error budget: a candidate corpus
	// rejecting more than this fraction of its record lines is refused
	// and the old generation keeps serving (default 0.05).
	MaxErrorRate float64
}

// withDefaults fills unset fields.
func (o ReloadOptions) withDefaults() ReloadOptions {
	if o.MaxErrorRate <= 0 {
		o.MaxErrorRate = 0.05
	}
	if o.Mode == 0 { // uls.Strict is the zero ParseMode; reloads default to Lenient
		o.Mode = uls.Lenient
	}
	return o
}

// ReloadStatus is the hot reloader's history, surfaced on /readyz and
// /statsz.
type ReloadStatus struct {
	Attempts    int    `json:"attempts"`
	Failures    int    `json:"failures"`
	LastError   string `json:"last_error,omitempty"`
	LastSuccess string `json:"last_success,omitempty"`
}

// ReloadStatus returns a copy of the reload history.
func (s *Server) ReloadStatus() ReloadStatus {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reload
}

// LoadCorpusFile ingests path under opts and, if the candidate passes
// the error budget and the integrity pass, atomically swaps it in as
// the live generation. On any failure the previous generation keeps
// serving and the error is recorded for /readyz. The swap protocol:
//
//  1. ingest into a fresh database (the live one is never touched);
//  2. refuse the candidate if ingestion blew the error budget;
//  3. run the cross-record integrity pass with repair, dropping only
//     inconsistent sub-records;
//  4. refuse an empty candidate (a truncated or garbage file must not
//     evict a working corpus);
//  5. build a fresh engine and publish (db, engine) with one atomic
//     pointer store.
//
// Requests pin their generation once at entry, so no request ever
// observes the corpus mid-swap.
func (s *Server) LoadCorpusFile(path string, opts ReloadOptions) error {
	opts = opts.withDefaults()
	err := s.loadCorpusFile(path, opts)

	s.reloadMu.Lock()
	s.reload.Attempts++
	if err != nil {
		s.reload.Failures++
		s.reload.LastError = err.Error()
	} else {
		s.reload.LastError = ""
		s.reload.LastSuccess = time.Now().UTC().Format(time.RFC3339)
	}
	s.reloadMu.Unlock()
	return err
}

func (s *Server) loadCorpusFile(path string, opts ReloadOptions) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("opening corpus: %w", err)
	}
	defer f.Close()

	db, report, err := uls.ReadBulkWithOptions(f, uls.ReadBulkOptions{
		Mode:         opts.Mode,
		MaxErrorRate: opts.MaxErrorRate,
	})
	if err != nil {
		return fmt.Errorf("ingesting corpus: %w", err)
	}
	vrep := uls.Validate(db, uls.ValidateOptions{Repair: true})
	if db.Len() == 0 {
		return fmt.Errorf("candidate corpus is empty after salvage (%d bad lines, %d issues)",
			report.BadLines, len(vrep.Issues))
	}
	src := fmt.Sprintf("%s (%d licenses, %d bad lines, %d repaired)",
		path, db.Len(), report.BadLines, vrep.Repaired)
	s.SetCorpus(db, src)
	return nil
}

// Watch hot-reloads the corpus until ctx is done: immediately on every
// tick of hup (wire it to SIGHUP), and, when interval > 0, whenever a
// poll sees the file's (mtime, size) change. Reload failures are
// logged and recorded but never stop the watcher — the next SIGHUP or
// file change retries.
func (s *Server) Watch(ctx context.Context, path string, interval time.Duration, hup <-chan struct{}, opts ReloadOptions) {
	var lastMod time.Time
	var lastSize int64
	if fi, err := os.Stat(path); err == nil {
		lastMod, lastSize = fi.ModTime(), fi.Size()
	}

	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	reload := func(trigger string) {
		if err := s.LoadCorpusFile(path, opts); err != nil {
			log.Printf("serve: reload (%s) failed, keeping previous generation: %v", trigger, err)
			return
		}
		if fi, err := os.Stat(path); err == nil {
			lastMod, lastSize = fi.ModTime(), fi.Size()
		}
		log.Printf("serve: reload (%s) succeeded: generation %d live", trigger, s.gen.Load().id)
	}

	for {
		select {
		case <-ctx.Done():
			return
		case _, ok := <-hup:
			if !ok {
				return
			}
			reload("SIGHUP")
		case <-tick:
			fi, err := os.Stat(path)
			if err != nil {
				continue // transient: file mid-replace
			}
			if fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
				continue
			}
			reload("file change")
		}
	}
}
