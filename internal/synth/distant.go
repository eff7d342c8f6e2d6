package synth

import (
	"fmt"
	"slices"

	"hftnetview/internal/uls"
)

// distantShiftDeg moves a copied filing 6.75° of latitude (~750 km)
// south: the corridor's towers then lie ~600 km or more from every data
// center, far outside the 50 km fiber reach.
const distantShiftDeg = 6.75

// DistantCopies returns a corpus holding db's licenses plus copies more
// of every licensee's filings, each copy moved ~750 km south, out of
// fiber reach of every corridor data center. Copy k of licensee X files
// as "X (copy k)" under call signs suffixed "Ck": a new licensee with
// X's license history and network shape. No copy has a fiber tail at a
// corridor data center or a tower site in the corridor, so every table,
// route and pair answer on a corridor path over the result equals the
// one over db: the corpus scales by copies+1 while what can reach the
// corridor stays the same.
func DistantCopies(db *uls.Database, copies int) (*uls.Database, error) {
	base := db.All()
	ls := slices.Clone(base)
	for k := 1; k <= copies; k++ {
		for _, l := range base {
			c := *l
			c.CallSign = fmt.Sprintf("%sC%d", l.CallSign, k)
			c.LicenseID = l.LicenseID + k*10_000_000
			c.Licensee = fmt.Sprintf("%s (copy %d)", l.Licensee, k)
			c.Locations = slices.Clone(l.Locations)
			for i := range c.Locations {
				c.Locations[i].Point.Lat -= distantShiftDeg
			}
			ls = append(ls, &c)
		}
	}
	out := uls.NewDatabase()
	if err := out.AddBulk(ls, uls.BulkAddOptions{}); err != nil {
		return nil, fmt.Errorf("synth: distant copies: %w", err)
	}
	return out, nil
}
