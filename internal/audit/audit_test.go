package audit

import (
	"strings"
	"testing"
)

// cleanFleet balances every ledger: 100 offered, 90 admitted, 80
// completed (70 good), 10 shed, one instance carrying it all, and two
// hedges resolved as one cancel and one drop.
func cleanFleet() *Fleet {
	return &Fleet{
		Offered: 100, Admitted: 90, Rejected: 10, Completed: 80,
		Good: 70, Late: 10,
		Shed: 10, ShedExpired: 4, ShedKV: 3, ShedQueueFull: 2, ShedRetries: 1,
		HedgesIssued: 2, HedgeWins: 1, HedgeCancels: 1, HedgeDrops: 1,
		HedgeWastedSeconds: 0.5,
		UnavailableSeconds: 3, RepairWindowSeconds: 3,
		Instances: []Instance{{
			ID: 0, Replicas: 2, ActiveAt: 0, End: 60, UnavailableSeconds: 3,
			BusySeconds: 50, PIMBusySeconds: 30, EnergyJ: 12,
			Admitted: 92, Finished: 80, Shed: 10, Canceled: 1, Displaced: 1,
		}},
	}
}

func TestCheckFleetClean(t *testing.T) {
	if vs := CheckFleet(cleanFleet()); len(vs) != 0 {
		t.Fatalf("clean fleet flagged: %v", vs)
	}
}

// TestCheckFleetViolations breaks one invariant per case and demands the
// named check fires.
func TestCheckFleetViolations(t *testing.T) {
	cases := map[string]struct {
		mutate    func(*Fleet)
		invariant string
	}{
		"offered leak":     {func(f *Fleet) { f.Offered++ }, "offered-split"},
		"request leak":     {func(f *Fleet) { f.Completed-- }, "request-conservation"},
		"goodput leak":     {func(f *Fleet) { f.Good-- }, "goodput-split"},
		"shed cause leak":  {func(f *Fleet) { f.ShedKV-- }, "shed-split"},
		"hedge leak":       {func(f *Fleet) { f.HedgeDrops-- }, "hedge-balance"},
		"phantom win":      {func(f *Fleet) { f.HedgeWins = 3 }, "hedge-wins"},
		"negative waste":   {func(f *Fleet) { f.HedgeWastedSeconds = -1 }, "hedge-waste"},
		"instance leak":    {func(f *Fleet) { f.Instances[0].Finished-- }, "instance-conservation"},
		"undrained":        {func(f *Fleet) { f.Instances[0].Outstanding = 1; f.Instances[0].Admitted++ }, "drain"},
		"negative busy":    {func(f *Fleet) { f.Instances[0].BusySeconds = -1 }, "busy-nonnegative"},
		"overfull":         {func(f *Fleet) { f.Instances[0].BusySeconds = 200 }, "capacity"},
		"pim exceeds busy": {func(f *Fleet) { f.Instances[0].PIMBusySeconds = 60 }, "pim-share"},
		"negative energy":  {func(f *Fleet) { f.Instances[0].EnergyJ = -1 }, "energy-nonnegative"},
		"pinned kv":        {func(f *Fleet) { f.Instances[0].KVPinnedEndBytes = 4096 }, "kv-balance"},
		"unavail mismatch": {func(f *Fleet) { f.Instances[0].UnavailableSeconds = 2 }, "unavailable-sum"},
		"negative unavail": {func(f *Fleet) { f.Instances[0].UnavailableSeconds = -90 }, "unavailable-nonnegative"},
		"lost repair":      {func(f *Fleet) { f.RepairWindowSeconds = 2 }, "unavailable-evidence"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			f := cleanFleet()
			tc.mutate(f)
			vs := CheckFleet(f)
			if len(vs) == 0 {
				t.Fatalf("violation not detected, want %q", tc.invariant)
			}
			for _, v := range vs {
				if v.Invariant == tc.invariant {
					if !strings.Contains(v.String(), tc.invariant) {
						t.Errorf("String() %q drops the invariant name", v.String())
					}
					return
				}
			}
			t.Fatalf("got %v, want invariant %q", vs, tc.invariant)
		})
	}
}

// TestCheckFleetTolerance accepts float drift at rounding scale: refunds
// re-subtract what charging added in a different order.
func TestCheckFleetTolerance(t *testing.T) {
	f := cleanFleet()
	f.RepairWindowSeconds += 1e-12
	f.Instances[0].BusySeconds = (f.Instances[0].End-f.Instances[0].ActiveAt-
		f.Instances[0].UnavailableSeconds)*float64(f.Instances[0].Replicas) + 1e-12
	if vs := CheckFleet(f); len(vs) != 0 {
		t.Fatalf("rounding-scale drift flagged: %v", vs)
	}
}

// TestErr pins the one formatter both loops report through: nil for a clean
// audit, else the prefix, the count and one indented line per violation.
func TestErr(t *testing.T) {
	if err := Err("serve", nil); err != nil {
		t.Fatalf("clean audit gave %v", err)
	}
	vs := CheckFleet(&Fleet{Offered: 2, Admitted: 1})
	want := "serve: conservation audit found 2 violation(s)\n  offered-split: offered 2 != admitted 1 + rejected 0\n  request-conservation: admitted 1 != completed 0 + shed 0"
	if err := Err("serve", vs); err == nil || err.Error() != want {
		t.Errorf("Err = %v, want %q", err, want)
	}
}
