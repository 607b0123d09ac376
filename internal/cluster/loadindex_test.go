package cluster

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// refInst and refMember stand in for serve.Instance and member in the two
// scans the load index replaced: the same two pointer hops to the count.
type (
	refInst   struct{ id, outstanding int }
	refMember struct{ inst *refInst }
)

// scanLeast is leastOutstandingRouter.pick as it stood before the load
// index: a pass over the routable list, in ID order, keeping the first
// member with the fewest outstanding requests.
func scanLeast(routable []*refMember) *refMember {
	best := routable[0]
	for _, m := range routable[1:] {
		if m.inst.outstanding < best.inst.outstanding {
			best = m
		}
	}
	return best
}

// scanHedgeTarget is the hedge pick of onHedgeTimer as it stood before the
// load index: fewest outstanding among the routable members other than
// skip, ties to the lowest ID; nil when there is no other member.
func scanHedgeTarget(routable []*refMember, skip int) *refMember {
	var best *refMember
	for _, m := range routable {
		if m.inst.id == skip {
			continue
		}
		if best == nil || m.inst.outstanding < best.inst.outstanding ||
			(m.inst.outstanding == best.inst.outstanding && m.inst.id < best.inst.id) {
			best = m
		}
	}
	return best
}

// refFleet is the model the index is checked against: every member ever
// created, whether it is routable, and the routable ones in ID order.
type refFleet struct {
	members  []*refMember
	up       []bool
	routable []*refMember
}

func (f *refFleet) add(up bool) {
	f.members = append(f.members, &refMember{&refInst{id: len(f.members)}})
	f.up = append(f.up, up)
}

// rebuild is what setState does: the routable list and the index together.
func (f *refFleet) rebuild(x *loadIndex) {
	f.routable = f.routable[:0]
	x.reset(len(f.members))
	for id, m := range f.members {
		if f.up[id] {
			f.routable = append(f.routable, m)
			x.insert(id, m.inst.outstanding)
		}
	}
}

// invariants checks the index against the invariants its declaration
// documents.
func (x *loadIndex) invariants() error {
	filed := 0
	for c := 0; c*x.words < len(x.sets); c++ {
		holds := false
		for w, set := range x.sets[c*x.words : (c+1)*x.words] {
			for ; set != 0; set &= set - 1 {
				holds = true
				filed++
				if id := w<<6 + bits.TrailingZeros64(set); id >= len(x.at) || int(x.at[id]) != c {
					return fmt.Errorf("bucket %d holds member %d, which at[] does not file there", c, id)
				}
			}
		}
		if occupied := x.occupied[c>>6]>>(c&63)&1 == 1; occupied != holds {
			return fmt.Errorf("bucket %d: occupied bit %t, holds a member %t", c, occupied, holds)
		}
		if holds && c < x.low {
			return fmt.Errorf("bucket %d is occupied below low = %d", c, x.low)
		}
	}
	for id, c := range x.at {
		if c >= 0 {
			filed--
		}
		if c >= 0 && x.sets[int(c)*x.words+id>>6]>>(id&63)&1 == 0 {
			return fmt.Errorf("at[%d] = %d, but bucket %d does not hold it", id, c, c)
		}
	}
	if filed != 0 {
		return fmt.Errorf("%d more bits set than members filed", filed)
	}
	return nil
}

// TestLoadIndexMatchesScan drives the load index and the two scans it
// replaced through the same random history and requires the same answer to
// every question. The history has what a fleet run has — members entering
// and leaving the routable set with work aboard, IDs created mid-run past
// one and two bitset words, counts moving by one, dropping to zero or by a
// replica's worth, and the whole fleet backed up thousands deep so that
// the occupied buckets sit above a long empty stretch — and the questions
// include the awkward ones: leaving out the unique minimum, a member that
// is not routable, an ID the index has never seen, and the only routable
// member.
func TestLoadIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var x loadIndex
	f := &refFleet{}
	if got := x.least(-1); got != -1 {
		t.Fatalf("empty index answered %d", got)
	}
	x.file(3, 1) // an ID the zero index has never seen: ignored, not a panic
	for i := 0; i < 5; i++ {
		f.add(true)
	}
	f.rebuild(&x)

	var uniqueMinSkipped, onlyMember, notRoutableSkipped, deepest int
	idOf := func(m *refMember) int {
		if m == nil {
			return -1
		}
		return m.inst.id
	}
	check := func(step int) {
		t.Helper()
		want := -1
		if len(f.routable) > 0 {
			want = scanLeast(f.routable).inst.id
		}
		if got := x.least(-1); got != want {
			t.Fatalf("step %d: least(-1) = %d, the router's scan picks %d", step, got, want)
		}
		skips := []int{rng.Intn(len(f.members)), len(f.members) + rng.Intn(200)}
		if want >= 0 {
			skips = append(skips, want) // the minimum itself, unique or not
		}
		for _, skip := range skips {
			wantH := idOf(scanHedgeTarget(f.routable, skip))
			if got := x.least(skip); got != wantH {
				t.Fatalf("step %d: least(%d) = %d, the hedge scan picks %d", step, skip, got, wantH)
			}
			switch {
			case skip >= len(f.members) || !f.up[skip]:
				notRoutableSkipped++
			case len(f.routable) == 1:
				onlyMember++
			case skip == want && f.members[wantH].inst.outstanding > f.members[want].inst.outstanding:
				uniqueMinSkipped++
			}
		}
	}
	// move sets a member's count in the model and re-files it, as the loop
	// does after a call that moved the instance's counter; a member that is
	// not routable is filed nowhere, and the index must ignore the call.
	move := func(id, count int) {
		f.members[id].inst.outstanding = count
		x.file(id, count)
		if f.up[id] && x.filed(id) != count {
			t.Fatalf("member %d filed under %d after file(%d)", id, x.filed(id), count)
		}
		if !f.up[id] && x.filed(id) != -1 {
			t.Fatalf("member %d is not routable but is filed under %d", id, x.filed(id))
		}
		if count > deepest {
			deepest = count
		}
	}

	const steps = 60000
	for step := 0; step < steps; step++ {
		id := rng.Intn(len(f.members))
		n := f.members[id].inst.outstanding
		switch p := rng.Intn(1000); {
		case p < 12: // a lifecycle transition: crash, drain, repair
			f.up[id] = !f.up[id]
			f.rebuild(&x)
		case p < 16 && len(f.members) < 150: // the autoscaler launches a member
			f.add(rng.Intn(4) > 0)
			f.rebuild(&x)
		case p < 18: // all but one member down, then back
			was := append([]bool(nil), f.up...)
			for i := range f.up {
				f.up[i] = i == id
			}
			f.rebuild(&x)
			check(step)
			copy(f.up, was)
			f.rebuild(&x)
		case p < 30: // a crash's survivors, a shed queue: the count drops to zero
			move(id, 0)
		case p < 40: // a replica's worth of work lost
			move(id, n-min(n, 1+rng.Intn(16)))
		case p < 42: // the fleet backs up: every count rises past a long empty stretch
			by := 500 + rng.Intn(2500)
			for i, m := range f.members {
				move(i, m.inst.outstanding+by)
			}
		case p < 44: // and drains again
			for i, m := range f.members {
				move(i, m.inst.outstanding%7)
			}
		case p < 540:
			move(id, n+1)
		default:
			move(id, max(n-1, 0))
		}
		check(step)
		if step%101 == 0 {
			if err := x.invariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	t.Logf("%d members, deepest count %d; skipped the unique minimum %d times, the only routable member %d times, a member that is not routable %d times",
		len(f.members), deepest, uniqueMinSkipped, onlyMember, notRoutableSkipped)
	if len(f.members) <= 128 || deepest < 2000 || uniqueMinSkipped < 1000 || onlyMember < 50 || notRoutableSkipped < 1000 {
		t.Errorf("the history missed a case it exists for: %d members, deepest count %d, unique minimum skipped %d times, only member %d, not routable %d",
			len(f.members), deepest, uniqueMinSkipped, onlyMember, notRoutableSkipped)
	}
}

// TestAuditRejectsStaleLoadIndex pins the auditor's load-index invariant:
// after a clean run the index files exactly the active members, each under
// its instance's own count, and an entry that is off by one — a call that
// moved the count with no re-file after it — or a filed member that is not
// active is a violation.
func TestAuditRejectsStaleLoadIndex(t *testing.T) {
	cfg := chaosConfig(1)
	cfg.Router = LeastOutstanding
	cfg.DurationSeconds = 5
	for name, skew := range map[string]func(*csim){
		"stale count": func(cs *csim) {
			id := cs.active[0].inst.ID
			cs.load.file(id, cs.load.filed(id)+1)
		},
		"filed but not active": func(cs *csim) { cs.active[0].state = stateDraining },
	} {
		cs, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.run(); err != nil {
			t.Fatalf("%s: clean run failed its audit: %v", name, err)
		}
		skew(cs)
		if err := cs.auditRun(); err == nil || !strings.Contains(err.Error(), "load-index") {
			t.Errorf("%s: audit returned %v, want a load-index violation", name, err)
		}
	}
}

// BenchmarkLeastOutstandingPick is one routed request at fleet widths 8,
// 64 and 512: pick the least-loaded member, admit to it, retire a request
// somewhere else. "index" is what the router does now, re-files included;
// "scan" is what it did before.
func BenchmarkLeastOutstandingPick(b *testing.B) {
	fleet := func(width int) (*refFleet, *loadIndex) {
		f, x := &refFleet{}, &loadIndex{}
		for i := 0; i < width; i++ {
			f.add(true)
			f.members[i].inst.outstanding = i % 5
		}
		f.rebuild(x)
		return f, x
	}
	// The retiring member walks the fleet at a stride coprime to its width,
	// so retirements land on members in every bucket.
	for _, width := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("index/width=%d", width), func(b *testing.B) {
			f, x := fleet(width)
			victim := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := f.members[x.least(-1)].inst
				m.outstanding++
				x.file(m.id, m.outstanding)
				victim = (victim + 7) % width
				if v := f.members[victim].inst; v.outstanding > 0 {
					v.outstanding--
					x.file(v.id, v.outstanding)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/width=%d", width), func(b *testing.B) {
			f, _ := fleet(width)
			victim := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanLeast(f.routable).inst.outstanding++
				victim = (victim + 7) % width
				if v := f.members[victim].inst; v.outstanding > 0 {
					v.outstanding--
				}
			}
		})
	}
}
