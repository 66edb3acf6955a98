package eventlog

import (
	"testing"
	"testing/quick"

	"fexiot/internal/rules"
)

// deployedRules builds a small coherent rule set for simulation tests.
func deployedRules() []*rules.Rule {
	mk := func(id string, trig rules.Condition, acts ...rules.Effect) *rules.Rule {
		return &rules.Rule{ID: id, Platform: rules.SmartThings, Trigger: trig,
			Actions: acts, Description: id}
	}
	return []*rules.Rule{
		mk("r1",
			rules.Condition{Device: "motion sensor", Room: "kitchen",
				Channel: rules.ChanMotion, State: "detected"},
			rules.Effect{Device: "light", Room: "kitchen", Verb: "turn on",
				Channel: rules.ChanPower, State: "on",
				Env: []rules.EnvDelta{{Channel: rules.ChanIlluminance, Sign: 1}}}),
		mk("r2",
			rules.Condition{Device: "light", Room: "kitchen",
				Channel: rules.ChanPower, State: "on"},
			rules.Effect{Device: "camera", Room: "kitchen", Verb: "turn on",
				Channel: rules.ChanPower, State: "on"}),
		mk("r3",
			rules.Condition{Device: "temperature sensor", Room: "bedroom",
				Channel: rules.ChanTemperature, State: "high"},
			rules.Effect{Device: "fan", Room: "bedroom", Verb: "start",
				Channel: rules.ChanPower, State: "running",
				Env: []rules.EnvDelta{{Channel: rules.ChanTemperature, Sign: -1}}}),
	}
}

func TestSimulatorProducesCausalChain(t *testing.T) {
	sim := NewSimulator(deployedRules(), 3)
	log := sim.Run(2000)
	if len(log) == 0 {
		t.Fatal("empty log")
	}
	// Motion happens spontaneously; r1 must fire and r2 must chain off it.
	fired := map[string]bool{}
	for _, e := range log {
		if e.RuleID != "" {
			fired[e.RuleID] = true
		}
	}
	if !fired["r1"] {
		t.Fatal("r1 never fired despite motion events")
	}
	if !fired["r2"] {
		t.Fatal("r2 never chained from r1's light-on action")
	}
	// Log is time ordered.
	for i := 1; i < len(log); i++ {
		if log[i].Time < log[i-1].Time {
			t.Fatal("log not time ordered")
		}
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	a := NewSimulator(deployedRules(), 7).Run(500)
	b := NewSimulator(deployedRules(), 7).Run(500)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestCleanRemovesErrorsAndRepeats(t *testing.T) {
	raw := Log{
		{Time: 1, Device: "light", Room: "kitchen", Channel: rules.ChanPower,
			Value: "on", Kind: KindSensor},
		{Time: 2, Device: "light", Room: "kitchen", Channel: rules.ChanPower,
			Value: "on", Kind: KindSensor}, // repeat
		{Time: 3, Device: "light", Room: "kitchen", Channel: rules.ChanPower,
			Value: "on", Err: true, Kind: KindError}, // error
		{Time: 4, Device: "light", Room: "kitchen", Channel: rules.ChanPower,
			Value: "off", Kind: KindSensor}, // change
	}
	cleaned := Clean(raw)
	if len(cleaned) != 2 {
		t.Fatalf("cleaned length %d want 2: %v", len(cleaned), cleaned)
	}
	if cleaned[0].Value != "on" || cleaned[1].Value != "off" {
		t.Fatalf("cleaned values wrong: %v", cleaned)
	}
}

func TestCleanConvertsNumericToLogical(t *testing.T) {
	var raw Log
	// Bimodal humidity history: low ~30, high ~70.
	for i := 0; i < 10; i++ {
		v := 30.0
		if i%2 == 1 {
			v = 70
		}
		raw = append(raw, Event{Time: int64(i), Device: "humidity sensor",
			Room: "bathroom", Channel: rules.ChanHumidity, Numeric: v,
			IsNumeric: true, Kind: KindSensor})
	}
	cleaned := Clean(raw)
	for _, e := range cleaned {
		if e.IsNumeric {
			t.Fatal("numeric reading survived cleaning")
		}
		if e.Value != "low" && e.Value != "high" {
			t.Fatalf("unexpected logical value %q", e.Value)
		}
	}
	// The paper's example: "humidity is 32" → low.
	found := false
	for _, e := range cleaned {
		if e.Value == "low" {
			found = true
		}
	}
	if !found {
		t.Fatal("no low readings after conversion")
	}
}

func TestCleanPropertyNoErrorsNoConsecutiveRepeats(t *testing.T) {
	f := func(seed int64) bool {
		sim := NewSimulator(deployedRules(), seed)
		cleaned := Clean(sim.Run(800))
		lastVal := map[string]string{}
		for _, e := range cleaned {
			if e.Err || e.IsNumeric {
				return false
			}
			k := e.Room + "|" + e.Device + "|" + e.Channel.String()
			if e.Kind == KindSensor && lastVal[k] == e.Value {
				return false
			}
			lastVal[k] = e.Value
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAttacksChangeTheLog(t *testing.T) {
	deployed := deployedRules()
	base := Clean(NewSimulator(deployed, 5).Run(1500))
	if len(base) < 10 {
		t.Fatalf("base log too small: %d", len(base))
	}
	for a := Attack(0); a < NumAttacks; a++ {
		attacked := Inject(base, a, deployed, 0.5, 11)
		same := len(attacked) == len(base)
		if same {
			for i := range attacked {
				if attacked[i] != base[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("attack %v left the log unchanged", a)
		}
	}
	// Losses and suppressions shrink; fakes grow.
	if len(Inject(base, EventLosses, deployed, 0.5, 3)) >= len(base) {
		t.Error("event losses should shrink the log")
	}
	if len(Inject(base, FakeEvents, deployed, 0.5, 3)) <= len(base) {
		t.Error("fake events should grow the log")
	}
}

func TestInjectPreservesOrdering(t *testing.T) {
	deployed := deployedRules()
	base := Clean(NewSimulator(deployed, 9).Run(1000))
	for a := Attack(0); a < NumAttacks; a++ {
		attacked := Inject(base, a, deployed, 0.7, 13)
		for i := 1; i < len(attacked); i++ {
			if attacked[i].Time < attacked[i-1].Time {
				t.Fatalf("attack %v broke time ordering", a)
			}
		}
	}
}

func TestInjectDoesNotMutateInput(t *testing.T) {
	deployed := deployedRules()
	base := Clean(NewSimulator(deployed, 15).Run(800))
	snapshot := append(Log(nil), base...)
	Inject(base, FakeCommands, deployed, 0.9, 1)
	Inject(base, EventLosses, deployed, 0.9, 2)
	for i := range base {
		if base[i] != snapshot[i] {
			t.Fatal("Inject mutated its input log")
		}
	}
}

func TestEventTypesRoundTrip(t *testing.T) {
	v := NewEventTypes()
	log := Clean(NewSimulator(deployedRules(), 21).Run(600))
	seq := v.Sequence(log, true)
	if len(seq) != len(log) {
		t.Fatal("sequence length mismatch")
	}
	for _, id := range seq {
		if id < 0 || id >= v.Size() {
			t.Fatalf("id %d out of range %d", id, v.Size())
		}
	}
	// Lookup of unseen event maps to sentinel.
	unseen := Event{Device: "never", Room: "seen", Value: "x"}
	seq2 := v.Sequence(Log{unseen}, false)
	if seq2[0] != v.Size() {
		t.Fatal("unseen event must map to the sentinel id")
	}
}

func TestStatusVector(t *testing.T) {
	log := Log{
		{Device: "light", Channel: rules.ChanPower, Value: "on", Kind: KindCommand},
		{Device: "door", Channel: rules.ChanContact, Value: "open", Kind: KindSensor},
	}
	v := StatusVector(log)
	if len(v) != 2*rules.NumChannels {
		t.Fatalf("vector length %d", len(v))
	}
	if v[int(rules.ChanPower)] != 1 { // "on" is positive
		t.Error("power positive count wrong")
	}
	if v[rules.NumChannels+int(rules.ChanPower)] != 1 { // command count
		t.Error("command count wrong")
	}
	if v[int(rules.ChanContact)] != 1 {
		t.Error("contact positive count wrong")
	}
}

func TestAttackStrings(t *testing.T) {
	for a := Attack(0); a < NumAttacks; a++ {
		if a.String() == "unknown" {
			t.Errorf("attack %d unnamed", a)
		}
	}
}
