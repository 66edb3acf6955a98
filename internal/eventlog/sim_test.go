package eventlog

import (
	"reflect"
	"testing"

	"fexiot/internal/rules"
)

// rulesFromBytes builds a rule set from arbitrary bytes over a small
// vocabulary chosen to collide: catalog sensors and actuators, devices the
// catalog does not know, names carrying the key separator, shared rule IDs,
// unnamed channels, states with and without a polarity.
func rulesFromBytes(data []byte) []*rules.Rule {
	devices := []string{"motion sensor", "temperature sensor", "contact sensor",
		"smoke detector", "weather station", "presence sensor", "light",
		"heater", "gizmo", "b|c", "c"}
	rooms := []string{"", "den", "attic", "a", "a|b"}
	states := []string{"", "on", "off", "high", "low", "detected", "open",
		"sunset", "night", "42"}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func(xs []string) string { return xs[next()%len(xs)] }
	var out []*rules.Rule
	for len(data) > 0 && len(out) < 12 {
		r := &rules.Rule{ID: "r" + string(rune('0'+next()%4))}
		r.Trigger = rules.Condition{Device: pick(devices), Room: pick(rooms),
			Channel: rules.Channel(next() % 24), State: pick(states)}
		for a := next() % 3; a > 0; a-- {
			eff := rules.Effect{Device: pick(devices), Room: pick(rooms),
				Channel: rules.Channel(next() % 24), State: pick(states)}
			for d := next() % 3; d > 0; d-- {
				eff.Env = append(eff.Env, rules.EnvDelta{
					Channel: rules.Channel(next() % 24), Sign: next()%3 - 1})
			}
			r.Actions = append(r.Actions, eff)
		}
		out = append(out, r)
	}
	return out
}

// FuzzSimulate: whatever the rule set and the noise settings, Run never
// panics, its log never goes back in time, every state confirmation follows
// its command by one second, and a seed fixes the log.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{}, int64(1), uint16(100), int8(60), uint8(8), uint8(77))
	f.Add([]byte("\x00\x00\x01\x01\x05\x01\x06\x01\x0b\x01\x02\x04\x01\x00\x07\x01\x0b\x01\x00"),
		int64(2), uint16(900), int8(7), uint8(128), uint8(200))
	f.Add([]byte("\x01\x09\x04\x04\x04\x02\x0a\x03\x08\x02\x00\x01\x02\x0a\x04\x18\x03\x01\x04\x02"),
		int64(3), uint16(1500), int8(-3), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, steps uint16, every int8, errProb, rate uint8) {
		// Two consecutive Runs: the second starts from the state, the levels
		// and the stream the first left.
		run := func() [2]Log {
			sim := NewSimulator(rulesFromBytes(data), seed)
			sim.PeriodicReportEvery = int64(every)
			sim.ErrorProb = float64(errProb) / 255
			sim.ExternalEventRate = float64(rate) / 255
			n := int64(steps % 2048)
			return [2]Log{sim.Run(n / 2), sim.Run(n - n/2)}
		}
		logs := run()
		if again := run(); !reflect.DeepEqual(logs, again) {
			t.Fatal("two runs of one seed differ")
		}
		for _, log := range logs {
			for i, e := range log {
				if i > 0 && e.Time < log[i-1].Time {
					t.Fatalf("event %d at t=%d follows t=%d", i, e.Time, log[i-1].Time)
				}
				if e.Kind != KindState {
					continue
				}
				cmd := e
				cmd.Time, cmd.Kind = e.Time-1, KindCommand
				found := false
				for j := i - 1; j >= 0 && log[j].Time >= cmd.Time && !found; j-- {
					found = log[j] == cmd
				}
				if !found {
					t.Fatalf("state confirmation %v has no command one second earlier", e)
				}
			}
		}
	})
}

// TestSimulatorAllocCeiling: a Run allocates its plan, its state and its
// log — nothing per tick. A 25-rule home stays under 1,000 allocations for
// two simulated hours (693,110 before the plan), and ten times the steps
// cost no more than the few extra times the log itself grows.
func TestSimulatorAllocCeiling(t *testing.T) {
	deployed := ledgerHome()
	allocs := func(steps int64) float64 {
		return testing.AllocsPerRun(3, func() { sinkLog = NewSimulator(deployed, 1).Run(steps) })
	}
	short, long := allocs(7200), allocs(72000)
	if short > 1000 {
		t.Errorf("7,200 steps: %.0f allocations, ceiling 1,000", short)
	}
	if long > short+8 {
		t.Errorf("72,000 steps: %.0f allocations against %.0f for 7,200: something allocates per tick", long, short)
	}
}
