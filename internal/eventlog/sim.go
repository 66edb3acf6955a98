package eventlog

import (
	"slices"

	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// Simulator executes deployed rules against an environment model and
// produces event logs. The environment keeps a numeric level per
// (room, channel); actions shift levels, sensors threshold them, and rule
// triggers fire on state transitions — a closed causal loop, so the logs
// carry genuine trigger-action structure rather than random noise.
type Simulator struct {
	Rules []*rules.Rule

	// Noise configuration (§III-A2 describes exactly these artefacts).
	PeriodicReportEvery int64   // sensors re-report unchanged values this often
	ErrorProb           float64 // chance an actuation logs an execution error
	ExternalEventRate   float64 // rate of spontaneous environment happenings per step

	r           *rng.RNG
	deviceState map[string]string  // instance key → logical state
	envLevel    map[string]float64 // room|channel → numeric level
}

// NewSimulator builds a simulator over a deployed rule set.
func NewSimulator(deployed []*rules.Rule, seed int64) *Simulator {
	return &Simulator{
		Rules:               deployed,
		PeriodicReportEvery: 60,
		ErrorProb:           0.03,
		ExternalEventRate:   0.3,
		r:                   rng.New(seed),
		deviceState:         map[string]string{},
		envLevel:            map[string]float64{},
	}
}

// baselines per channel: typical numeric level and the shift one actuation
// causes.
func channelBaseline(ch rules.Channel) (base, shift float64) {
	switch ch {
	case rules.ChanTemperature:
		return 21, 6
	case rules.ChanHumidity:
		return 40, 18
	case rules.ChanIlluminance:
		return 120, 180
	case rules.ChanSound:
		return 30, 25
	case rules.ChanEnergy:
		return 100, 150
	default:
		return 0, 1
	}
}

// clockCycle is the schedule the clock walks through, one phase per 300
// ticks, so time triggers ("at sunset, …") fire periodically.
var clockCycle = [...]string{"morning", "sunset", "night", "sunrise"}

// debounceTicks: a rule fires at most once per this many ticks.
const debounceTicks = 30

// environment holds the numeric level of every environment slot of a plan.
// A slot comes into being at its channel's baseline the first time it is
// read or pushed, and only slots that exist relax.
type environment struct {
	level []float64
	live  []bool
}

// at returns slot i's level, creating the slot at base when absent.
func (e *environment) at(i int, base float64) *float64 {
	if !e.live[i] {
		e.live[i], e.level[i] = true, base
	}
	return &e.level[i]
}

// Run simulates `steps` ticks (1 tick = 1 simulated second) and returns the
// raw event log, noise included. The rules are compiled into a plan first
// and device states and environment levels are loaded from, and stored back
// to, the simulator's maps, so consecutive Runs carry the home's state and
// the exported fields may be edited between them.
func (s *Simulator) Run(steps int64) Log {
	p := s.compile()
	state := make([]string, len(p.insts)) // "" = never set
	for k, i := range p.insts {
		state[i] = s.deviceState[k]
	}
	env := environment{make([]float64, len(p.envs)), make([]bool, len(p.envs))}
	for k, i := range p.envs {
		env.level[i], env.live[i] = s.envLevel[k]
	}
	lastReport := make([]int64, len(p.sensors)) // never reported reads as tick 0
	lastFired := make([]int64, p.ruleIDs)
	for i := range lastFired {
		lastFired[i] = -debounceTicks // a first firing is never debounced
	}

	// State confirmations are stamped t+1: they wait in pending and enter
	// the log before anything tick t+1 emits — where a stable sort by time
	// would put them, since tick t appended them before tick t+1 began.
	var log, pending Log
	for t := int64(0); t < steps; t++ {
		// Growing the log by append's quarters was half of a long Run: once
		// a thousand events show the home's rate, a full log grows to the
		// length that rate predicts for all steps, a tenth to spare.
		if len(log) >= 1024 && cap(log)-len(log) < p.maxPerTick {
			want := int(1.1 * float64(len(log)) * float64(steps) / float64(t))
			log = slices.Grow(log, max(want-len(log), len(log)/4, p.maxPerTick))
		}
		log = append(log, pending...)
		pending = pending[:0]
		phase := clockCycle[t/300%int64(len(clockCycle))]

		// 1. Spontaneous external happenings keep the home alive: motion,
		// button presses, presence flips, manual door/lock operation.
		if s.r.Bool(s.ExternalEventRate) && len(p.sensors) > 0 {
			sn := &p.sensors[s.r.Intn(len(p.sensors))]
			value := ""
			switch sn.ch {
			case rules.ChanMotion, rules.ChanButton:
				value = positivePole(sn.ch)
			case rules.ChanPresence, rules.ChanContact, rules.ChanLockState:
				// Residents come and go, open and close doors and windows
				// and toggle locks by hand.
				if value = positivePole(sn.ch); state[sn.inst] == value {
					value = negativePole(sn.ch)
				}
			case rules.ChanSmoke, rules.ChanCO, rules.ChanLeak:
				// Hazards are rare but must occur for safety rules to exercise.
				if s.r.Bool(0.15) {
					value = positivePole(sn.ch)
				} else if state[sn.inst] == positivePole(sn.ch) {
					value = negativePole(sn.ch) // hazard clears
				}
			case rules.ChanWeather:
				value = [...]string{"raining", "sunny", "windy", "snowing"}[s.r.Intn(4)]
			default:
				// Environmental nudge (weather, a window opened by hand, …).
				*env.at(sn.env, sn.base) += s.r.Range(-sn.shift/2, sn.shift/2)
			}
			if value != "" {
				state[sn.inst] = value
				log = append(log, Event{Time: t, Device: sn.Device, Room: sn.Room,
					Channel: sn.ch, Value: value, Kind: KindSensor})
			}
		}

		// 2. Rule evaluation: a rule fires when its trigger condition holds
		// in the current state; its actions mutate device state and
		// environment and are logged.
		for i := range p.rules {
			r := &p.rules[i]
			holds := false
			switch r.kind {
			case triggerClock:
				holds = r.state == phase
			case triggerNumeric:
				level := *env.at(r.env, r.base)
				holds = r.sign > 0 && level > r.base+r.shift/2 ||
					r.sign < 0 && level < r.base-r.shift/2
			case triggerLogical:
				holds = state[r.inst] == r.state
			}
			if !holds || t-lastFired[r.debounce] < debounceTicks {
				continue
			}
			lastFired[r.debounce] = t
			for j := range r.effects {
				eff := &r.effects[j]
				ev := eff.cmd
				ev.Time = t
				log = append(log, ev)
				if s.r.Bool(s.ErrorProb) {
					// Execution error: the command is logged, an error
					// follows, and the state does not change — cleaning
					// drops these (§III-A2).
					ev.Err, ev.Kind = true, KindError
					log = append(log, ev)
					continue
				}
				state[eff.inst] = ev.Value
				ev.Time, ev.Kind = t+1, KindState
				pending = append(pending, ev)
				for _, d := range eff.pushes {
					*env.at(d.env, d.base) += d.delta
				}
			}
		}

		// 3. Periodic sensor reporting with drift — the repetitive-reading
		// noise the cleaner must strip.
		for i := range p.sensors {
			sn := &p.sensors[i]
			if t-lastReport[i] < s.PeriodicReportEvery {
				continue
			}
			lastReport[i] = t
			ev := Event{Time: t, Device: sn.Device, Room: sn.Room, Channel: sn.ch,
				Kind: KindSensor}
			if sn.numeric {
				ev.Numeric = *env.at(sn.env, sn.base) + s.r.NormFloat64()*0.4 // sensor jitter
				ev.IsNumeric = true
			} else if ev.Value = state[sn.inst]; ev.Value == "" {
				ev.Value = negativePole(sn.ch)
			}
			log = append(log, ev)
		}

		// 4. Environment relaxation — toward zero, not toward the baseline:
		// EXPERIMENTS.md "Known deviations" 6.
		for i, live := range env.live {
			if live {
				env.level[i] *= 0.995
			}
		}
	}
	log = append(log, pending...)

	for k, i := range p.insts {
		s.deviceState[k] = state[i]
	}
	for k, i := range p.envs {
		if env.live[i] {
			s.envLevel[k] = env.level[i]
		}
	}
	return log
}

// numericChannel reports whether a channel logs numeric readings.
func numericChannel(ch rules.Channel) bool {
	switch ch {
	case rules.ChanTemperature, rules.ChanHumidity, rules.ChanIlluminance,
		rules.ChanSound, rules.ChanEnergy:
		return true
	}
	return false
}

// positivePole / negativePole give the logical state names of a channel.
func positivePole(ch rules.Channel) string {
	switch ch {
	case rules.ChanMotion, rules.ChanSmoke, rules.ChanCO:
		return "detected"
	case rules.ChanContact:
		return "open"
	case rules.ChanLeak:
		return "wet"
	case rules.ChanPresence:
		return "home"
	case rules.ChanLockState:
		return "locked"
	case rules.ChanButton:
		return "pressed"
	default:
		return "high"
	}
}

func negativePole(ch rules.Channel) string {
	switch ch {
	case rules.ChanMotion, rules.ChanSmoke, rules.ChanCO:
		return "clear"
	case rules.ChanContact:
		return "closed"
	case rules.ChanLeak:
		return "dry"
	case rules.ChanPresence:
		return "away"
	case rules.ChanLockState:
		return "unlocked"
	default:
		return "low"
	}
}
