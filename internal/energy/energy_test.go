package energy

import (
	"testing"

	"github.com/ais-snu/localut/internal/pim"
)

func TestPriceAdditivity(t *testing.T) {
	m := Default()
	var a, b pim.Meter
	a.Counts[pim.EvInstr] = 1000
	a.Counts[pim.EvDMARead] = 4096
	b.Counts[pim.EvInstr] = 500
	b.Counts[pim.EvMul8] = 200

	ra := m.Price(&a, 100, 0)
	rb := m.Price(&b, 50, 0)
	var sum pim.Meter
	sum.Counts[pim.EvInstr] = 1500
	sum.Counts[pim.EvDMARead] = 4096
	sum.Counts[pim.EvMul8] = 200
	rs := m.Price(&sum, 150, 0)
	if diff := rs.TotalJ - (ra.TotalJ + rb.TotalJ); diff > 1e-15 || diff < -1e-15 {
		t.Errorf("energy not additive: %g vs %g", rs.TotalJ, ra.TotalJ+rb.TotalJ)
	}
}

func TestPriceComponents(t *testing.T) {
	m := Default()
	var meter pim.Meter
	meter.Counts[pim.EvInstr] = 1_000_000
	meter.Counts[pim.EvHostToPIM] = 1 << 20
	r := m.Price(&meter, 0, 2.0)
	if r.DynamicJ["dpu_instr"] != 1_000_000*m.InstrJ {
		t.Errorf("instr energy %g", r.DynamicJ["dpu_instr"])
	}
	if r.StaticJ != 2.0*m.StaticW {
		t.Errorf("static energy %g", r.StaticJ)
	}
	if r.TotalJ <= r.StaticJ {
		t.Error("total must include dynamic terms")
	}
}

func TestMul32CostsMoreThanMul8(t *testing.T) {
	m := Default()
	var m8, m32 pim.Meter
	m8.Counts[pim.EvMul8] = 100
	m32.Counts[pim.EvMul32] = 100
	if m.Price(&m32, 0, 0).TotalJ <= m.Price(&m8, 0, 0).TotalJ {
		t.Error("mul32 should cost more than mul8")
	}
}
