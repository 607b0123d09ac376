package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/serve"
)

// kvChaosConfig is chaosConfig under enough load to hedge most requests
// and with nearly all of each bank given to LUTs, so the KV budget binds
// and the KVShed policy drops requests — hedge twins among them.
func kvChaosConfig(seed int64) Config {
	cfg := chaosConfig(seed)
	cfg.RatePerSec = 100
	cfg.Base.KVPolicy = serve.KVShed
	cfg.Base.Engine = gemm.NewEngine()
	cfg.Base.Engine.Cfg.LUTBudgetFrac = 0.9995
	return cfg
}

// TestTimelineIsFleetState pins the timeline's bound: it records
// fleet-state transitions only, every entry is one the report's
// fleet-state counters account for, and its length follows the chaos plan,
// not the traffic — hedges and KV sheds, which scale with requests, stay
// in the counters.
func TestTimelineIsFleetState(t *testing.T) {
	rep, err := Run(kvChaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HedgesIssued == 0 || rep.HedgeWins == 0 || rep.ShedKV == 0 {
		t.Fatalf("scenario is vacuous: %d hedges, %d hedge wins, %d KV sheds",
			rep.HedgesIssued, rep.HedgeWins, rep.ShedKV)
	}
	n := map[string]int{}
	for _, ev := range rep.Timeline {
		switch ev.Kind {
		case KindScale, KindFault, KindDomain, KindStraggler:
			n[ev.Kind+"/"+ev.Action]++
		default:
			t.Errorf("timeline entry of kind %q at t=%g: not a fleet-state transition", ev.Kind, ev.Seconds)
		}
	}
	// Opening transitions are counted by the report one for one; a closing
	// transition (replica repair, domain repair, straggler end) can be
	// superseded by a crash or a later outage, never duplicated.
	for _, c := range []struct {
		key  string
		want int
	}{
		{"fault/crash", rep.Crashes},
		{"fault/repair", rep.Crashes}, // the drain lands every scheduled repair
		{"fault/degrade", rep.DegradedEvents},
		{"domain-outage/outage", rep.DomainOutages},
		{"straggler/start", rep.StragglerWindows},
	} {
		if n[c.key] != c.want {
			t.Errorf("timeline has %d %s entries, report counts %d", n[c.key], c.key, c.want)
		}
	}
	for _, c := range []struct{ closing, opening string }{
		{"fault/replica-repair", "fault/degrade"},
		{"domain-outage/repair", "domain-outage/outage"},
		{"straggler/end", "straggler/start"},
	} {
		if n[c.closing] > n[c.opening] {
			t.Errorf("timeline has %d %s entries for %d %s", n[c.closing], c.closing, n[c.opening], c.opening)
		}
	}
	if most := 2 * (rep.Crashes + rep.DegradedEvents + rep.DomainOutages + rep.StragglerWindows); len(rep.Timeline) == 0 || len(rep.Timeline) > most {
		t.Errorf("timeline has %d entries, fleet-state counters allow 1..%d", len(rep.Timeline), most)
	}

	double := kvChaosConfig(1)
	double.RatePerSec *= 2
	rep2, err := Run(double)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Admitted < 2*rep.Admitted*9/10 {
		t.Fatalf("doubled rate admitted %d against %d", rep2.Admitted, rep.Admitted)
	}
	if len(rep2.Timeline) > len(rep.Timeline) {
		t.Errorf("doubling the rate grew the timeline from %d to %d entries", len(rep.Timeline), len(rep2.Timeline))
	}
}

// TestHedgeAndKVShedInTrace pins where per-request detail went: with
// every request sampled the trace carries one "hedge" instant per hedge
// issued, one "hedge-win" per duplicate that won, and a "kv-shed" naming
// the member for every KV-pressure drop (shed requests and retired hedge
// copies alike).
func TestHedgeAndKVShedInTrace(t *testing.T) {
	cfg := kvChaosConfig(2)
	cfg.Recorder = obs.NewRecorder(1)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Recorder.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "i" {
			continue
		}
		n[ev.Name]++
		if ev.Name == "hedge-win" || ev.Name == "kv-shed" {
			if _, ok := ev.Args["id"].(float64); !ok {
				t.Fatalf("%s instant without a request id: %+v", ev.Name, ev)
			}
			if m, ok := ev.Args["member"].(float64); !ok || m < 0 || int(m) >= cfg.Instances {
				t.Fatalf("%s instant without a valid member: %+v", ev.Name, ev)
			}
		}
	}
	if rep.HedgesIssued == 0 || n["hedge"] != rep.HedgesIssued {
		t.Errorf("trace has %d hedge instants, report issued %d", n["hedge"], rep.HedgesIssued)
	}
	if rep.HedgeWins == 0 || n["hedge-win"] != rep.HedgeWins {
		t.Errorf("trace has %d hedge-win instants, report counts %d wins", n["hedge-win"], rep.HedgeWins)
	}
	if rep.ShedKV == 0 || n["kv-shed"] < rep.ShedKV {
		t.Errorf("trace has %d kv-shed instants, report counts %d KV sheds", n["kv-shed"], rep.ShedKV)
	}
}
