package localut

import (
	"fmt"
	"testing"
)

// planCase is one set of forced plan options for a GEMM: a design plus an
// optional packing degree, slice batch and streaming flag (zero values force
// nothing).
type planCase struct {
	d         Design
	p, k      int
	streaming bool
}

func (c planCase) opts() []GEMMOption {
	var o []GEMMOption
	if c.p != 0 {
		o = append(o, WithPackingDegree(c.p))
	}
	if c.k != 0 {
		o = append(o, WithSliceK(c.k))
	}
	if c.streaming {
		o = append(o, WithStreaming())
	}
	return o
}

func (c planCase) String() string {
	return fmt.Sprintf("%v p=%d k=%d streaming=%v", c.d, c.p, c.k, c.streaming)
}

// want is the option a refusal of the case must name.
func (c planCase) want() string {
	if c.k < 0 {
		return "ForceK"
	}
	return "ForceP"
}

// badPlans are the forced plans the planner must refuse: a packing degree
// lut.NewSpec rejects, on every packed design, and a negative slice batch, on
// every design and on both LoCaLUT residencies.
func badPlans() []planCase {
	var cs []planCase
	for _, d := range Designs {
		cs = append(cs, planCase{d: d, k: -1})
		if d >= DesignOP {
			cs = append(cs, planCase{d: d, p: -1}, planCase{d: d, p: 99})
		}
	}
	return append(cs, planCase{d: DesignLoCaLUT, k: -1, streaming: true},
		planCase{d: DesignLoCaLUT, p: 4, k: -1}, planCase{d: DesignLoCaLUT, p: 8, k: -1, streaming: true})
}

// FuzzPlan drives the planner through the facade in cycles-only mode: any
// design, evaluation format, forced packing degree, slice batch and streaming
// flag, on shapes from -1 to 64 on a side. Every outcome must be an error, or
// a result whose P is the forced p (0 for Naive and LTC, which have none);
// nothing may panic. For LoCaLUT, ChoosePlan with the same options must fail
// exactly when GEMM does, and otherwise report the run's P, Streaming and
// SliceK, with PredictedSeconds equal to TotalSeconds. The seed corpus is
// badPlans, one plan each design runs, and two empty shapes.
func FuzzPlan(f *testing.F) {
	dim := func(x uint8) int { return int(x)%66 - 1 } // [-1, 64]
	enc := func(d int) uint8 { return uint8(d + 1) }  // dim's inverse
	for _, c := range badPlans() {
		f.Add(uint8(c.d), uint8(0), int8(c.p), int8(c.k), c.streaming, enc(64), enc(64), enc(8))
	}
	for _, d := range Designs {
		f.Add(uint8(d), uint8(d%4), int8(d%3), int8(d%2), d == DesignLoCaLUT, enc(33), enc(17), enc(5))
	}
	f.Add(uint8(DesignLoCaLUT), uint8(0), int8(0), int8(0), false, enc(0), enc(64), enc(8))
	f.Add(uint8(DesignLoCaLUT), uint8(1), int8(0), int8(0), false, enc(64), enc(64), enc(-1))
	sys := NewSystem(WithCyclesOnly())
	f.Fuzz(func(t *testing.T, design, format uint8, p, k int8, streaming bool, m, kk, n uint8) {
		c := planCase{d: Designs[int(design)%len(Designs)], p: int(p), k: int(k), streaming: streaming}
		fm, M, K, N := Formats[int(format)%len(Formats)], dim(m), dim(kk), dim(n)
		res, err := sys.GEMM(fm, M, K, N, c.d, c.opts()...)
		if c.d == DesignLoCaLUT {
			plan, planErr := sys.ChoosePlan(fm, M, K, N, c.opts()...)
			switch {
			case (err == nil) != (planErr == nil):
				t.Errorf("%v %dx%dx%d: GEMM error %v, ChoosePlan error %v", c, M, K, N, err, planErr)
			case err == nil && (plan.P != res.P || plan.Streaming != res.Streaming ||
				plan.SliceK != res.SliceK || plan.PredictedSeconds != res.TotalSeconds):
				t.Errorf("%v %dx%dx%d: planned %+v, ran p=%d streaming=%v k=%d in %v s",
					c, M, K, N, plan, res.P, res.Streaming, res.SliceK, res.TotalSeconds)
			}
		}
		if err != nil {
			return
		}
		want := c.p
		if c.d < DesignOP {
			want = 0
		}
		if c.p != 0 && res.P != want {
			t.Errorf("%v: ran at p=%d", c, res.P)
		}
	})
}
