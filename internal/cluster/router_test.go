package cluster

import (
	"testing"

	"github.com/ais-snu/localut/internal/serve"
)

// TestFreeKVRouterTieBreak pins the free-KV router's tie-break: among
// members with equal free KV it picks the one with fewer outstanding
// requests, and among members equal on both it keeps the first. Two
// members tie on free KV when one holds a prompt of 2T tokens and the other
// two prompts of T.
func TestFreeKVRouterTieBreak(t *testing.T) {
	const tok = 64
	cases := []struct {
		name    string
		prompts [][]int // prompt lengths admitted to each member, in fleet order
		want    int     // index of the member pick must return
	}{
		{"idle fleet of three", [][]int{nil, nil, nil}, 0},
		{"fewer outstanding first", [][]int{{2 * tok}, {tok, tok}}, 0},
		{"fewer outstanding second", [][]int{{tok, tok}, {2 * tok}}, 1},
	}
	for _, c := range cases {
		cfg := testConfig()
		cfg.Instances = len(c.prompts)
		cs, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, lens := range c.prompts {
			for _, n := range lens {
				if !cs.active[i].inst.Admit(&serve.Request{Tokens: n, Padded: n}) {
					t.Fatalf("%s: member %d refused a prompt", c.name, i)
				}
			}
		}
		if a, b := cs.active[0].inst, cs.active[len(c.prompts)-1].inst; a.KVFreeBytes() != b.KVFreeBytes() {
			t.Fatalf("%s: members do not tie on free KV: %d vs %d bytes", c.name, a.KVFreeBytes(), b.KVFreeBytes())
		}
		if got := (freeKVRouter{}).pick(cs, nil); got != cs.active[c.want] {
			t.Errorf("%s: picked member %d, want %d", c.name, got.inst.ID, cs.active[c.want].inst.ID)
		}
	}
}
