package eventlog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"fexiot/internal/rules"
)

// hashLog folds a log into h: whether it is nil, its length, and every
// field of every event.
func hashLog(h hash.Hash, log Log) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	flag(log == nil)
	u64(uint64(len(log)))
	for _, e := range log {
		u64(uint64(e.Time))
		str(e.Device)
		str(e.Room)
		u64(uint64(e.Channel))
		str(e.Value)
		u64(math.Float64bits(e.Numeric))
		flag(e.IsNumeric)
		flag(e.Err)
		str(e.RuleID)
		u64(uint64(e.Kind))
	}
}

// archetypeHome samples the n rules of one home of the named archetype.
func archetypeHome(name string, n int, seed int64) []*rules.Rule {
	for _, a := range rules.Archetypes() {
		if a.Name == name {
			return rules.NewGenerator(seed, a, name+"-").RuleSet(n)
		}
	}
	panic("no archetype " + name)
}

func pinRule(id string, trig rules.Condition, acts ...rules.Effect) *rules.Rule {
	return &rules.Rule{ID: id, Trigger: trig, Actions: acts}
}

// pinnedCase is one row of the pinned table: a name and the raw logs it
// produces, in order.
type pinnedCase struct {
	name string
	logs func() []Log
}

// pinnedCases lists what Run's compiled plan could get wrong: every
// archetype at every size, state carried across Runs, the exported fields
// edited between Runs, shared rule IDs, empty action lists, homes without
// sensors, sensing channels resolved through the rules instead of the
// catalog, and instance keys that collide through the '|' separator.
func pinnedCases() []pinnedCase {
	var cases []pinnedCase
	for ai, a := range rules.Archetypes() {
		for _, n := range []int{0, 1, 5, 25, 50} {
			name, n, seed := a.Name, n, int64(100*ai+n)
			cases = append(cases, pinnedCase{fmt.Sprintf("%s/%d", name, n), func() []Log {
				return []Log{NewSimulator(archetypeHome(name, n, seed), seed+7).Run(1500)}
			}})
		}
	}
	heater := rules.Effect{Device: "heater", Room: "den", Verb: "turn on",
		Channel: rules.ChanPower, State: "on",
		Env: []rules.EnvDelta{{Channel: rules.ChanTemperature, Sign: 1}, {Channel: rules.ChanEnergy, Sign: 1}}}
	cooler := rules.Effect{Device: "air conditioner", Room: "den", Verb: "turn on",
		Channel: rules.ChanPower, State: "on",
		Env: []rules.EnvDelta{{Channel: rules.ChanTemperature, Sign: -1}}}
	lamp := rules.Effect{Device: "light", Room: "den", Verb: "turn on",
		Channel: rules.ChanPower, State: "on",
		Env: []rules.EnvDelta{{Channel: rules.ChanIlluminance, Sign: 1}}}
	motion := rules.Condition{Device: "motion sensor", Room: "den",
		Channel: rules.ChanMotion, State: "detected"}
	hot := rules.Condition{Device: "temperature sensor", Room: "den",
		Channel: rules.ChanTemperature, State: "high"}
	cold := rules.Condition{Device: "temperature sensor", Room: "den",
		Channel: rules.ChanTemperature, State: "low"}
	return append(cases,
		pinnedCase{"three-runs", func() []Log {
			sim := NewSimulator(archetypeHome("climate", 20, 11), 12)
			return []Log{sim.Run(1), sim.Run(700), sim.Run(2500)}
		}},
		pinnedCase{"edited-between-runs", func() []Log {
			// The second rule set shares no room with the first, whose
			// environment levels must keep relaxing while it is away.
			first := archetypeHome("climate", 12, 21)
			sim := NewSimulator(first, 22)
			logs := []Log{sim.Run(900)}
			sim.Rules = archetypeHome("safety", 9, 23)
			sim.PeriodicReportEvery = 0
			sim.ErrorProb = 0.5
			sim.ExternalEventRate = 0.9
			logs = append(logs, sim.Run(200))
			sim.Rules = first
			sim.PeriodicReportEvery = 45
			sim.ErrorProb = 0
			return append(logs, sim.Run(900))
		}},
		pinnedCase{"shared-rule-id", func() []Log {
			return []Log{NewSimulator([]*rules.Rule{
				pinRule("dup", motion, lamp),
				pinRule("dup", rules.Condition{Device: "light", Room: "den",
					Channel: rules.ChanPower, State: "on"}, heater),
				pinRule("dup", hot, cooler),
			}, 31).Run(3000)}
		}},
		pinnedCase{"no-actions", func() []Log {
			return []Log{NewSimulator([]*rules.Rule{
				pinRule("idle", motion),
				pinRule("cold", cold, heater),
				pinRule("odd", rules.Condition{Device: "humidity sensor", Room: "den",
					Channel: rules.ChanHumidity, State: "42"}),
			}, 41).Run(3000)}
		}},
		pinnedCase{"time-and-voice-only", func() []Log {
			sim := NewSimulator([]*rules.Rule{
				pinRule("dusk", rules.Condition{Device: "clock", Channel: rules.ChanTime,
					State: "sunset"}, lamp, heater),
				pinRule("say", rules.Condition{Device: "voice", Channel: rules.ChanVoice,
					State: "good night"}, cooler),
			}, 51)
			logs := []Log{sim.Run(2000)}
			// The external-happening draws above advanced the stream.
			sim.Rules = append(sim.Rules, pinRule("m", motion, lamp))
			return append(logs, sim.Run(600))
		}},
		pinnedCase{"actuator-state-trigger", func() []Log {
			// "light" is in the catalog but senses nothing; "gizmo" is not
			// in it, and the first rule naming it is a clock trigger.
			return []Log{NewSimulator([]*rules.Rule{
				pinRule("g0", rules.Condition{Device: "gizmo", Channel: rules.ChanTime,
					State: "night"}, lamp),
				pinRule("g1", rules.Condition{Device: "gizmo", Room: "den",
					Channel: rules.ChanPower, State: "on"}, heater),
				pinRule("l1", rules.Condition{Device: "light", Room: "den",
					Channel: rules.ChanPower, State: "on"},
					rules.Effect{Device: "gizmo", Room: "den", Verb: "turn on",
						Channel: rules.ChanPower, State: "on"}),
				pinRule("l2", rules.Condition{Device: "widget", Room: "attic",
					Channel: rules.Channel(40), State: ""}, cooler),
			}, 61).Run(3000)}
		}},
		pinnedCase{"separator-collision", func() []Log {
			return []Log{NewSimulator([]*rules.Rule{
				pinRule("p1", rules.Condition{Device: "c", Room: "a|b",
					Channel: rules.ChanContact, State: "open"}, lamp),
				pinRule("p2", rules.Condition{Device: "b|c", Room: "a",
					Channel: rules.ChanTemperature, State: "low"},
					rules.Effect{Device: "c", Room: "a|b", Verb: "close",
						Channel: rules.ChanContact, State: "closed"}),
				// Channels past the last named one all print "unknown" and
				// so share one environment level per room.
				pinRule("p3", rules.Condition{Device: "widget", Room: "attic",
					Channel: rules.Channel(40), State: "high"}, lamp),
				pinRule("p4", rules.Condition{Device: "gadget", Room: "attic",
					Channel: rules.Channel(41), State: "low"}, lamp),
			}, 71).Run(3000)}
		}},
	)
}

// simulatedLogsPin and cleanedLogsPin are the SHA-256 of every raw log of
// pinnedCases and of what Clean makes of each, recorded at commit 8cee423 —
// before Run compiled a plan, emitted in time order without a sort, and
// Clean numbered its instances. Every pinned F1, Table II and stream ≡
// batch constant sits downstream of these bytes.
const (
	simulatedLogsPin = "8c99ec4f9c2aa36141c74b7650a49094a6f2fa54132689276a4265eec1cb5324"
	cleanedLogsPin   = "51cecef0aaf3dd7156fc3d5e5d80fd1f18c2552bd3472b6dde51d3df3d4a911f"
)

func TestSimulatedLogsPinned(t *testing.T) {
	raw, cleaned := sha256.New(), sha256.New()
	events := 0
	for _, c := range pinnedCases() {
		one := sha256.New()
		for _, log := range c.logs() {
			events += len(log)
			hashLog(raw, log)
			hashLog(one, log)
			hashLog(cleaned, Clean(log))
		}
		// Per-case digests locate a mismatch: compare with this line at
		// the pinned commit.
		t.Logf("%-28s %x", c.name, one.Sum(nil)[:8])
	}
	t.Logf("%d events", events)
	if got := hex.EncodeToString(raw.Sum(nil)); got != simulatedLogsPin {
		t.Errorf("raw logs hash to %s, pinned %s", got, simulatedLogsPin)
	}
	if got := hex.EncodeToString(cleaned.Sum(nil)); got != cleanedLogsPin {
		t.Errorf("cleaned logs hash to %s, pinned %s", got, cleanedLogsPin)
	}
}

// handMadeCleanPin covers what no simulated log contains: a first sensor
// event with an empty value (dropped as a repeat of the absent one),
// histories too short for a break, two unknown channels sharing the name
// "unknown", and instances whose keys collide through the separator.
const handMadeCleanPin = "4904c9126cdb7f183bcf48dda45de701f39f9dd50aeabf26ad559aaca5e87b58"

func TestCleanPinned(t *testing.T) {
	if got := Clean(Log{
		{Time: 1, Device: "light", Room: "den", Channel: rules.ChanPower, Value: "on",
			Err: true, Kind: KindError},
		{Time: 2, Device: "lock", Room: "den", Channel: rules.ChanLockState, Kind: KindSensor},
	}); got != nil {
		t.Fatalf("an input from which nothing survives must clean to nil, got %#v", got)
	}
	if Clean(nil) != nil || Clean(Log{}) != nil {
		t.Fatal("an empty input must clean to nil")
	}
	raw := Log{
		{Time: 0, Device: "lock", Room: "den", Channel: rules.ChanLockState, Kind: KindSensor},
		{Time: 1, Device: "lock", Room: "den", Channel: rules.ChanLockState, Kind: KindState},
		{Time: 2, Device: "humidity sensor", Room: "den", Channel: rules.ChanHumidity,
			Numeric: 33, IsNumeric: true, Kind: KindSensor},
		{Time: 3, Device: "widget", Room: "den", Channel: rules.Channel(30), Value: "x", Kind: KindSensor},
		{Time: 4, Device: "widget", Room: "den", Channel: rules.Channel(40), Value: "x", Kind: KindSensor},
		{Time: 5, Device: "widget", Room: "den", Channel: rules.Channel(40), Value: "x", Kind: KindCommand},
		{Time: 6, Device: "c", Room: "a|b", Channel: rules.ChanTemperature,
			Numeric: 10, IsNumeric: true, Kind: KindSensor},
		{Time: 7, Device: "b|c", Room: "a", Channel: rules.ChanTemperature,
			Numeric: 30, IsNumeric: true, Kind: KindSensor},
		{Time: 8, Device: "c", Room: "a|b", Channel: rules.ChanTemperature,
			Numeric: 31, IsNumeric: true, Err: true, Kind: KindSensor},
		{Time: 9, Device: "c", Room: "a|b", Channel: rules.ChanTemperature,
			Numeric: 29, IsNumeric: true, Kind: KindSensor},
		{Time: 10, Device: "c", Room: "a|b", Channel: rules.ChanTemperature,
			Numeric: 11, IsNumeric: true, Kind: KindState},
	}
	h := sha256.New()
	hashLog(h, Clean(raw))
	if got := hex.EncodeToString(h.Sum(nil)); got != handMadeCleanPin {
		t.Fatalf("hand-made log cleans to %s, pinned %s", got, handMadeCleanPin)
	}
}
