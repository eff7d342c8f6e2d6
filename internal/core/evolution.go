package core

import (
	"fmt"
	"time"

	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/units"
)

// EvolutionPoint is one sample of a network's longitudinal trajectory
// (§4): its end-to-end latency and active license count on a date.
type EvolutionPoint struct {
	Date uls.Date
	// Connected reports whether an end-to-end route existed; Latency is
	// meaningful only when it did.
	Connected bool
	Latency   units.Latency
	// ActiveLicenses is the licensee's license count in force on Date
	// (Fig 2's y-axis).
	ActiveLicenses int
}

// EvolutionSweeper is a provider that can resolve a whole longitudinal
// sweep itself — the snapshot engine implements it by grouping the
// dates by event-log anchor and resolving each distinct anchor once,
// instead of one independent reconstruction per date. EvolutionVia
// prefers it when the provider offers it.
type EvolutionSweeper interface {
	EvolutionSweep(licensee string, path sites.Path, dates []uls.Date, opts Options) ([]EvolutionPoint, error)
}

// EvolutionVia reconstructs the licensee's network at each date through
// the provider and reports the trajectory — the data behind Figs 1 and
// 2. A licensee with no filed location within opts.MaxFiberMeters of
// one of the path's ends has no route at any date (see Reaches), so it
// is answered from the event log's counts alone, without a snapshot.
// Otherwise a provider that implements EvolutionSweeper (the snapshot
// engine) resolves the sweep once per distinct anchor, and on any
// other provider the per-date path runs — reconstructions are
// independent, so the provider may resolve them in parallel. Over
// DirectProvider every date is rebuilt independently, which makes it
// the correctness oracle for the sweep. Either way the per-date license
// counts come from the event log's prefix sums (O(log events) per
// point), not from re-deriving the full per-licensee activity map at
// every date.
func EvolutionVia(p SnapshotProvider, licensee string, path sites.Path, dates []uls.Date, opts Options) ([]EvolutionPoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !Reaches(p.DB(), []string{licensee}, path, opts) {
		log := p.DB().EventLog()
		out := make([]EvolutionPoint, len(dates))
		for i, d := range dates {
			out[i] = EvolutionPoint{Date: d, ActiveLicenses: log.ActiveCount(licensee, d)}
		}
		return out, nil
	}
	if s, ok := p.(EvolutionSweeper); ok {
		return s.EvolutionSweep(licensee, path, dates, opts)
	}
	reqs := make([]SnapshotRequest, len(dates))
	for i, d := range dates {
		reqs[i] = SnapshotRequest{
			Licensees: []string{licensee},
			Date:      d,
			DCs:       []sites.DataCenter{path.From, path.To},
			Opts:      opts,
		}
	}
	nets, err := p.Snapshots(reqs)
	if err != nil {
		return nil, err
	}
	log := p.DB().EventLog()
	out := make([]EvolutionPoint, 0, len(dates))
	for i, d := range dates {
		pt := EvolutionPoint{Date: d, ActiveLicenses: log.ActiveCount(licensee, d)}
		if r, ok := nets[i].BestRoute(path); ok {
			pt.Connected = true
			pt.Latency = r.Latency
		}
		out = append(out, pt)
	}
	return out, nil
}

// PaperSampleDates returns the sampling dates of Figs 1 and 2: January
// 1st of each year from firstYear through lastYear, except that when
// lastYear is 2020 the final sample is April 1st (the paper's snapshot
// date).
func PaperSampleDates(firstYear, lastYear int) []uls.Date {
	var out []uls.Date
	for y := firstYear; y <= lastYear; y++ {
		if y == 2020 {
			out = append(out, uls.NewDate(2020, time.April, 1))
			continue
		}
		out = append(out, uls.NewDate(y, time.January, 1))
	}
	return out
}

// GridDates returns the sampling dates of an Evolution sweep on a
// denser grid than the paper's yearly samples: "yearly" is exactly
// PaperSampleDates, "monthly" is the 1st of every month, and "daily"
// is every calendar day. Like PaperSampleDates, a range reaching 2020
// stops at April 1st, the paper's corpus snapshot date.
func GridDates(firstYear, lastYear int, grid string) ([]uls.Date, error) {
	if lastYear < firstYear {
		return nil, fmt.Errorf("core: grid range %d–%d is empty", firstYear, lastYear)
	}
	end := uls.NewDate(lastYear, time.December, 31)
	if lastYear >= 2020 {
		end = uls.NewDate(2020, time.April, 1)
	}
	switch grid {
	case "yearly", "":
		return PaperSampleDates(firstYear, lastYear), nil
	case "monthly":
		var out []uls.Date
		for y := firstYear; y <= lastYear; y++ {
			for m := time.January; m <= time.December; m++ {
				d := uls.NewDate(y, m, 1)
				if d.After(end) {
					return out, nil
				}
				out = append(out, d)
			}
		}
		return out, nil
	case "daily":
		var out []uls.Date
		for d := uls.NewDate(firstYear, time.January, 1); !d.After(end); d = d.AddDays(1) {
			out = append(out, d)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: unknown grid %q (want daily, monthly, or yearly)", grid)
	}
}
