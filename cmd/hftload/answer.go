package main

import (
	"bytes"
	"encoding/json"

	"hftnetview/internal/core"
	"hftnetview/internal/entity"
	"hftnetview/internal/sites"
)

// The response shapes below mirror the /v1 handlers field for field.
// They serve twice: the oracle renders its expected answers through
// them, and the traced run's layer replay times the JSON encode of the
// same bytes a replica writes. Only the fields the oracle compares
// (compared, below) must stay in step with the service; the rest only
// size the replayed render.

type networkRow struct {
	Licensee      string  `json:"licensee"`
	LatencyMicros float64 `json:"latency_us"`
	APA           float64 `json:"apa"`
	Towers        int     `json:"towers"`
	Hops          int     `json:"hops"`
}

type ranking struct {
	Path         string       `json:"path"`
	GeodesicKM   float64      `json:"geodesic_km"`
	Ranked       []networkRow `json:"ranked"`
	GeodesicRTTu float64      `json:"geodesic_rtt_us"`
}

type point struct {
	Date           string  `json:"date"`
	Connected      bool    `json:"connected"`
	LatencyMicros  float64 `json:"latency_us,omitempty"`
	ActiveLicenses int     `json:"active_licenses"`
}

type apaRow struct {
	Licensee      string  `json:"licensee"`
	APA           float64 `json:"apa"`
	LatencyMicros float64 `json:"latency_us"`
}

type pairRow struct {
	Pair          string  `json:"pair"`
	LatencyMicros float64 `json:"latency_us"`
}

// answerBody is the union of the four response bodies, fields in the
// handlers' order; each endpoint fills its own. The any-typed fields
// hold a slice when the endpoint has them (rendered even when empty,
// as the handlers do) and nil otherwise (omitted).
type answerBody struct {
	Date          string    `json:"date,omitempty"`
	Licensee      string    `json:"licensee,omitempty"`
	Path          string    `json:"path,omitempty"`
	Generation    int64     `json:"generation"`
	Networks      any       `json:"networks,omitempty"`
	Paths         []ranking `json:"paths,omitempty"`
	Points        []point   `json:"points,omitempty"`
	Complementary any       `json:"complementary_pairs,omitempty"`
}

// compared names the response fields the oracle checks for each
// endpoint; the process-local "generation" and the echo fields are
// left out.
func compared(ep endpoint) []string {
	switch ep {
	case epRank:
		return []string{"paths"}
	case epEvolution:
		return []string{"points"}
	case epAPA:
		return []string{"networks", "complementary_pairs"}
	default:
		return []string{"networks"}
	}
}

func toRow(s core.NetworkSummary) networkRow {
	return networkRow{
		Licensee:      s.Licensee,
		LatencyMicros: s.Latency.Microseconds(),
		APA:           s.APA,
		Towers:        s.TowerCount,
		Hops:          s.HopCount,
	}
}

// answer computes a request's response body through the provider API
// the handlers use — core.*Via and entity.ComplementaryPairsVia with the
// default options.
func answer(p core.SnapshotProvider, r request) (*answerBody, error) {
	opts := core.DefaultOptions()
	switch r.ep {
	case epRank:
		ranks, err := core.RankNetworksVia(p, r.date, sites.CorridorPaths(), 0, opts)
		if err != nil {
			return nil, err
		}
		out := &answerBody{Date: r.date.String()}
		for _, pr := range ranks {
			rk := ranking{
				Path:         pr.Path.Name(),
				GeodesicKM:   pr.GeodesicMeters / 1e3,
				GeodesicRTTu: 2 * pr.GeodesicMeters / speedOfLight * 1e6,
				Ranked:       make([]networkRow, 0, len(pr.Ranked)),
			}
			for _, row := range pr.Ranked {
				rk.Ranked = append(rk.Ranked, toRow(row))
			}
			out.Paths = append(out.Paths, rk)
		}
		return out, nil
	case epEvolution:
		pts, err := core.EvolutionVia(p, r.licensee, r.path, core.PaperSampleDates(r.from, r.to), opts)
		if err != nil {
			return nil, err
		}
		out := &answerBody{Licensee: r.licensee, Path: r.path.Name(), Points: make([]point, 0, len(pts))}
		for _, pt := range pts {
			jp := point{Date: pt.Date.String(), Connected: pt.Connected, ActiveLicenses: pt.ActiveLicenses}
			if pt.Connected {
				jp.LatencyMicros = pt.Latency.Microseconds()
			}
			out.Points = append(out.Points, jp)
		}
		return out, nil
	case epAPA:
		rows, err := core.ConnectedNetworksVia(p, r.date, r.path, opts)
		if err != nil {
			return nil, err
		}
		pairs, err := entity.ComplementaryPairsVia(p, r.date, r.path, nil, opts)
		if err != nil {
			return nil, err
		}
		nets := make([]apaRow, 0, len(rows))
		for _, row := range rows {
			nets = append(nets, apaRow{Licensee: row.Licensee, APA: row.APA, LatencyMicros: row.Latency.Microseconds()})
		}
		comp := make([]pairRow, 0, len(pairs))
		for _, pr := range pairs {
			comp = append(comp, pairRow{Pair: pr.A + " + " + pr.B, LatencyMicros: pr.Latency.Microseconds()})
		}
		return &answerBody{Date: r.date.String(), Path: r.path.Name(), Networks: nets, Complementary: comp}, nil
	default:
		rows, err := core.ConnectedNetworksVia(p, r.date, r.path, opts)
		if err != nil {
			return nil, err
		}
		nets := make([]networkRow, 0, len(rows))
		for _, row := range rows {
			nets = append(nets, toRow(row))
		}
		return &answerBody{Date: r.date.String(), Path: r.path.Name(), Networks: nets}, nil
	}
}

// render encodes a body the way the handlers do: one json.Encoder with
// two-space indent.
func render(b *answerBody) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(b) // encoding these plain structs cannot fail
	return buf.Bytes()
}

// speedOfLight in vacuum, m/s — the physics floor of every route.
const speedOfLight = 299792458.0
