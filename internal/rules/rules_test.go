package rules

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCatalogWellFormed(t *testing.T) {
	cat := Catalog()
	if len(cat) < 20 {
		t.Fatalf("catalog too small: %d", len(cat))
	}
	names := map[string]bool{}
	for _, d := range cat {
		if d.Name == "" {
			t.Fatal("unnamed device")
		}
		if names[d.Name] {
			t.Fatalf("duplicate device %q", d.Name)
		}
		names[d.Name] = true
		if !d.IsSensor() && !d.IsActuator() {
			t.Fatalf("device %q neither senses nor actuates", d.Name)
		}
		if d.IsSensor() && len(d.SenseStates) == 0 {
			t.Fatalf("sensor %q has no states", d.Name)
		}
		for _, c := range d.Commands {
			if c.Verb == "" || c.State == "" || c.Channel == ChanNone {
				t.Fatalf("device %q has malformed command %+v", d.Name, c)
			}
		}
	}
}

// TestCatalogByNameBuiltOnce: the index is one read-only map over one copy
// of the catalog, and Catalog still hands out a slice of the caller's own.
func TestCatalogByNameBuiltOnce(t *testing.T) {
	first, second := CatalogByName(), CatalogByName()
	if len(first) != len(Catalog()) {
		t.Fatalf("index has %d devices, catalog %d", len(first), len(Catalog()))
	}
	for name, d := range first {
		if second[name] != d {
			t.Fatalf("two calls return different devices for %q", name)
		}
		if d.Name != name {
			t.Fatalf("index entry %q names %q", name, d.Name)
		}
	}
	a, b := Catalog(), Catalog()
	for i := range a {
		if &a[i] == &b[i] || &a[i] == first[a[i].Name] {
			t.Fatalf("Catalog aliases device %q", a[i].Name)
		}
	}
	a[0].Name = "reordered"
	if _, ok := CatalogByName()["reordered"]; ok || Catalog()[0].Name == "reordered" {
		t.Fatal("editing Catalog's slice reached the index or a later Catalog")
	}
}

func TestStateSignAndOpposite(t *testing.T) {
	if StateSign("on") != 1 || StateSign("off") != -1 || StateSign("sunset") != 0 {
		t.Fatal("StateSign wrong")
	}
	// Opposites are involutive where defined.
	for _, s := range []string{"on", "open", "detected", "high", "wet",
		"locked", "home", "bright", "running"} {
		o := OppositeState(s)
		if o == "" {
			t.Fatalf("%q has no opposite", s)
		}
		if OppositeState(o) != s {
			t.Fatalf("opposite not involutive for %q", s)
		}
		if StateSign(s) != -StateSign(o) {
			t.Fatalf("signs of %q and %q must oppose", s, o)
		}
	}
}

func TestCanTriggerDirect(t *testing.T) {
	// "Turn on the lights" directly matches "the lights are on".
	a := Effect{Device: "light", Channel: ChanPower, State: "on"}
	c := Condition{Device: "light", Channel: ChanPower, State: "on"}
	if CanTrigger(a, c) != DirectMatch {
		t.Fatal("direct match expected")
	}
	// Different state: no direct trigger.
	c.State = "off"
	if CanTrigger(a, c) != NoMatch {
		t.Fatal("opposite state must not trigger")
	}
}

func TestCanTriggerEnvironmental(t *testing.T) {
	// Heater on raises temperature → triggers "temperature is high".
	heater := Effect{Device: "heater", Channel: ChanPower, State: "on",
		Env: []EnvDelta{{ChanTemperature, 1}}}
	hot := Condition{Device: "temperature sensor", Channel: ChanTemperature, State: "high"}
	cold := Condition{Device: "temperature sensor", Channel: ChanTemperature, State: "low"}
	if CanTrigger(heater, hot) != EnvMatch {
		t.Fatal("heater should raise temperature")
	}
	if CanTrigger(heater, cold) != NoMatch {
		t.Fatal("heater must not trigger low temperature")
	}
}

func TestBlocks(t *testing.T) {
	closeWin := Effect{Device: "window", Channel: ChanContact, State: "closed"}
	openCond := Condition{Device: "window", Channel: ChanContact, State: "open"}
	if !Blocks(closeWin, openCond) {
		t.Fatal("closing the window blocks the open condition")
	}
	// Environmental block: AC lowers temperature, blocking "high".
	ac := Effect{Device: "air conditioner", Channel: ChanPower, State: "on",
		Env: []EnvDelta{{ChanTemperature, -1}}}
	hot := Condition{Device: "temperature sensor", Channel: ChanTemperature, State: "high"}
	if !Blocks(ac, hot) {
		t.Fatal("AC blocks high temperature")
	}
	if Blocks(ac, Condition{Device: "temperature sensor", Channel: ChanTemperature, State: "low"}) {
		t.Fatal("AC does not block low temperature")
	}
}

func TestConflictsAndDuplicates(t *testing.T) {
	on := Effect{Device: "water valve", Channel: ChanWaterFlow, State: "on"}
	off := Effect{Device: "water valve", Channel: ChanWaterFlow, State: "off"}
	if !Conflicts(on, off) {
		t.Fatal("valve on/off must conflict")
	}
	if Conflicts(on, on) {
		t.Fatal("same action is not a conflict")
	}
	if !Duplicates(on, on) {
		t.Fatal("same action duplicates")
	}
	other := Effect{Device: "light", Channel: ChanPower, State: "on"}
	if Conflicts(on, other) || Duplicates(on, other) {
		t.Fatal("different devices never conflict/duplicate")
	}
}

func TestDescribePlatformIdioms(t *testing.T) {
	trig := Condition{Device: "motion sensor", Channel: ChanMotion, State: "detected"}
	act := []Effect{{Device: "light", Verb: "turn on", Channel: ChanPower, State: "on"}}
	cases := map[Platform]string{
		SmartThings:   "when motion is detected",
		HomeAssistant: "When motion is detected",
		IFTTT:         "If motion is detected, then",
	}
	for p, want := range cases {
		got := Describe(p, trig, act)
		if !strings.Contains(got, want) {
			t.Errorf("%s description %q missing %q", p, got, want)
		}
		if !strings.Contains(strings.ToLower(got), "turn on the light") {
			t.Errorf("%s description %q missing action", p, got)
		}
	}
	// Voice platforms prefix the wake word on voice triggers.
	voiceTrig := Condition{Device: "voice", Channel: ChanVoice, State: "good night"}
	alexa := Describe(AmazonAlexa, voiceTrig, act)
	if !strings.HasPrefix(alexa, "Alexa, ") {
		t.Errorf("Alexa description %q", alexa)
	}
	google := Describe(GoogleAssistant, voiceTrig, act)
	if !strings.HasPrefix(google, "Hey Google, ") {
		t.Errorf("Google description %q", google)
	}
}

func TestDescribeMultiAction(t *testing.T) {
	trig := Condition{Device: "smoke detector", Channel: ChanSmoke, State: "detected"}
	acts := []Effect{
		{Device: "water valve", Verb: "turn on", Channel: ChanWaterFlow, State: "on"},
		{Device: "alarm", Verb: "sound", Channel: ChanSound, State: "on"},
	}
	got := Describe(IFTTT, trig, acts)
	if !strings.Contains(got, "and sound the alarm") {
		t.Errorf("multi-action description %q", got)
	}
	if !strings.Contains(got, "smoke is detected") {
		t.Errorf("description %q should phrase smoke naturally", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	arch := Archetypes()[0]
	a := NewGenerator(7, arch, "r").RuleSet(20)
	b := NewGenerator(7, arch, "r").RuleSet(20)
	for i := range a {
		if a[i].Description != b[i].Description || a[i].ID != b[i].ID {
			t.Fatal("generator must be deterministic")
		}
	}
}

func TestGeneratorWellFormedRulesProperty(t *testing.T) {
	archs := Archetypes()
	f := func(seed int64, archIdx uint8) bool {
		g := NewGenerator(seed, archs[int(archIdx)%len(archs)], "x")
		for i := 0; i < 10; i++ {
			r := g.Rule()
			if r.ID == "" || r.Description == "" {
				return false
			}
			if len(r.Actions) == 0 || len(r.Actions) > 2 {
				return false
			}
			if r.Trigger.Channel == ChanNone {
				return false
			}
			for _, a := range r.Actions {
				if a.Device == "" || a.State == "" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorArchetypeBias(t *testing.T) {
	// A security home should mention security devices far more often than a
	// climate home does.
	count := func(arch Archetype, device string) int {
		g := NewGenerator(11, arch, "x")
		n := 0
		for _, r := range g.RuleSet(400) {
			for _, a := range r.Actions {
				if a.Device == device {
					n++
				}
			}
			if r.Trigger.Device == device {
				n++
			}
		}
		return n
	}
	archs := Archetypes()
	var security, climate Archetype
	for _, a := range archs {
		switch a.Name {
		case "security":
			security = a
		case "climate":
			climate = a
		}
	}
	if count(security, "lock") <= count(climate, "lock") {
		t.Error("security archetype should use locks more")
	}
	if count(climate, "heater") <= count(security, "heater") {
		t.Error("climate archetype should use heaters more")
	}
}

func TestRuleSetOnRestrictsPlatform(t *testing.T) {
	g := NewGenerator(3, Archetypes()[2], "x")
	for _, r := range g.RuleSetOn(IFTTT, 50) {
		if r.Platform != IFTTT {
			t.Fatalf("rule on %s", r.Platform)
		}
	}
}

func TestVoicePlatformClassification(t *testing.T) {
	if !GoogleAssistant.VoicePlatform() || !AmazonAlexa.VoicePlatform() {
		t.Fatal("assistants are voice platforms")
	}
	if SmartThings.VoicePlatform() || IFTTT.VoicePlatform() {
		t.Fatal("app platforms are not voice platforms")
	}
}

func TestRuleCanTriggerChain(t *testing.T) {
	// R1: motion → lights on. R2: lights on → lock door.
	r1 := &Rule{ID: "r1",
		Trigger: Condition{Device: "motion sensor", Channel: ChanMotion, State: "detected"},
		Actions: []Effect{{Device: "light", Channel: ChanPower, State: "on",
			Env: []EnvDelta{{ChanIlluminance, 1}}}}}
	r2 := &Rule{ID: "r2",
		Trigger: Condition{Device: "light", Channel: ChanPower, State: "on"},
		Actions: []Effect{{Device: "lock", Channel: ChanLockState, State: "locked"}}}
	if RuleCanTrigger(r1, r2) != DirectMatch {
		t.Fatal("r1 should directly trigger r2")
	}
	if RuleCanTrigger(r2, r1) != NoMatch {
		t.Fatal("r2 must not trigger r1")
	}
	// Environmental chain: lights on raises illuminance → "bright" trigger.
	r3 := &Rule{ID: "r3",
		Trigger: Condition{Device: "illuminance sensor", Channel: ChanIlluminance, State: "bright"},
		Actions: []Effect{{Device: "blind", Channel: ChanContact, State: "closed"}}}
	if RuleCanTrigger(r1, r3) != EnvMatch {
		t.Fatal("light should environmentally trigger brightness rule")
	}
}
