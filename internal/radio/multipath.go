package radio

import "math"

// Clear-air multipath fading, in the style of the Vigants–Barnett
// model used for North American fixed-link availability planning. Even
// without rain, atmospheric layering occasionally steers the beam off
// the dish; the deep-fade outage probability grows with the CUBE of
// path length and linearly with frequency — the quantitative core of
// the paper's §6 tradeoff "longer links allow cheaper builds using
// fewer towers, but are also less reliable".

// ClimateFactor is the Vigants–Barnett terrain/climate factor c:
// 0.25 for mountains/dry, 1 for average, 4 for humid/over-water paths.
type ClimateFactor float64

// Climate factors for the corridor's terrain mix.
const (
	ClimateDry     ClimateFactor = 0.25
	ClimateAverage ClimateFactor = 1.0
	ClimateHumid   ClimateFactor = 4.0
)

// MultipathOutageProbability returns the worst-month probability of a
// multipath fade deeper than the fade margin:
//
//	P = 6·10⁻⁷ · c · f · d³ · 10^(−M/10)
//
// with f in GHz, d in km and M in dB, clamped to [0, 1].
func MultipathOutageProbability(freqGHz, pathKM, marginDB float64, climate ClimateFactor) float64 {
	if pathKM <= 0 || freqGHz <= 0 {
		return 0
	}
	c := float64(climate)
	if c <= 0 {
		c = float64(ClimateAverage)
	}
	p := 6e-7 * c * freqGHz * math.Pow(pathKM, 3) * math.Pow(10, -marginDB/10)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// PathAvailability returns the worst-month availability (0..1) of a
// multi-hop path whose hops fade independently: the product of per-hop
// availabilities.
func PathAvailability(hops []Hop, marginDB float64, climate ClimateFactor) float64 {
	avail := 1.0
	for _, h := range hops {
		p := MultipathOutageProbability(h.FreqGHz, h.PathKM, marginDB, climate)
		avail *= 1 - p
	}
	return avail
}

// Hop is one link of a path for availability computation.
type Hop struct {
	FreqGHz float64
	PathKM  float64
}

// EquivalentHopCountTradeoff answers the §6 build question directly:
// for a corridor of totalKM split into n equal hops, the per-path
// outage scales as n·(totalKM/n)³ = totalKM³/n² — halving hop length
// (doubling towers) cuts outage 4×. It returns the worst-month outage
// probability of the whole corridor for the given hop count.
func EquivalentHopCountTradeoff(totalKM float64, hops int, freqGHz, marginDB float64, climate ClimateFactor) float64 {
	if hops <= 0 {
		return 1
	}
	per := MultipathOutageProbability(freqGHz, totalKM/float64(hops), marginDB, climate)
	// Union bound, accurate for the small probabilities involved.
	p := per * float64(hops)
	if p > 1 {
		return 1
	}
	return p
}
