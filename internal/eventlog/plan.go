package eventlog

import "fexiot/internal/rules"

// plan is the deployed rule set compiled for one Run, so that the tick loop
// touches only slices. Device instances and environment slots are numbered
// by the very strings the simulator's maps are keyed by — "room|device" and
// "room|channel", formatted here, once — so names containing the separator
// share a slot exactly where they shared a map entry.
type plan struct {
	insts   map[string]int // key in Simulator.deviceState → device-state slot
	envs    map[string]int // key in Simulator.envLevel → environment slot
	sensors []planSensor   // sensing instances, in first-seen trigger order
	rules   []planRule
	ruleIDs int // distinct rule IDs: one debounce slot each
	// maxPerTick bounds the events one tick appends to the log: last tick's
	// confirmations, one happening, a command and an error per effect, a
	// report per sensor — and the confirmations flushed after the last tick.
	maxPerTick int
}

// planSensor is a device instance some trigger watches: it reports
// periodically and spontaneous happenings occur at it.
type planSensor struct {
	Instance                  // as the first trigger naming it spells it
	inst        int           // device-state slot
	ch          rules.Channel // the channel it reports on
	numeric     bool          // reports a level rather than a state
	env         int           // environment slot of (Room, ch)
	base, shift float64       // channelBaseline(ch)
}

// triggerKind says what a rule's trigger reads.
type triggerKind uint8

const (
	triggerNever   triggerKind = iota // voice commands arrive only as injected happenings
	triggerClock                      // the schedule is in a phase
	triggerNumeric                    // an environment level is past base ± shift/2
	triggerLogical                    // a device instance is in state
)

type planRule struct {
	kind        triggerKind
	state       string  // triggerClock, triggerLogical: the phase or state waited for
	inst        int     // triggerLogical: device-state slot
	env         int     // triggerNumeric: environment slot
	base, shift float64 // triggerNumeric: channelBaseline of the trigger's channel
	sign        int     // triggerNumeric: +1 high, −1 low, 0 never holds
	debounce    int     // slot shared by every rule with this ID
	effects     []planEffect
}

type planEffect struct {
	cmd    Event // the command record, Time unset
	inst   int   // device-state slot of the commanded instance
	pushes []envPush
}

// envPush is one environmental side effect of a command.
type envPush struct {
	env         int     // environment slot
	base, delta float64 // level the slot starts from, signed shift
}

// number returns key's slot in index, the next free one when it is new.
func number(index map[string]int, key string) int {
	i, ok := index[key]
	if !ok {
		i = len(index)
		index[key] = i
	}
	return i
}

// compile builds the plan of the current Rules. Environment levels left by
// earlier rule sets get slots too: they keep relaxing while their rules are
// away.
func (s *Simulator) compile() *plan {
	p := &plan{insts: map[string]int{}, envs: map[string]int{}}
	ids := map[string]int{}
	inst := func(device, room string) int {
		return number(p.insts, Instance{Device: device, Room: room}.key())
	}
	env := func(room string, ch rules.Channel) int {
		return number(p.envs, room+"|"+ch.String())
	}
	catalog := rules.CatalogByName()
	sensing := map[int]bool{}
	for _, r := range s.Rules {
		c := r.Trigger
		pr := planRule{debounce: number(ids, r.ID)}
		switch {
		case c.Channel == rules.ChanTime:
			pr.kind, pr.state = triggerClock, c.State
		case c.Channel == rules.ChanVoice:
			pr.kind = triggerNever
		default:
			i := inst(c.Device, c.Room)
			if numericChannel(c.Channel) {
				pr.kind, pr.env, pr.sign = triggerNumeric, env(c.Room, c.Channel), rules.StateSign(c.State)
				pr.base, pr.shift = channelBaseline(c.Channel)
			} else {
				pr.kind, pr.inst, pr.state = triggerLogical, i, c.State
			}
			if sensing[i] {
				break
			}
			sensing[i] = true
			// A catalog sensor reports its sensing channel; any other
			// device (an actuator whose state a trigger watches) the
			// channel of the first trigger that names it, whatever its room.
			var ch rules.Channel
			if d, ok := catalog[c.Device]; ok && d.IsSensor() {
				ch = d.SenseChannel
			} else {
				for _, o := range s.Rules {
					if o.Trigger.Device == c.Device {
						ch = o.Trigger.Channel
						break
					}
				}
			}
			sn := planSensor{Instance: Instance{Device: c.Device, Room: c.Room},
				inst: i, ch: ch, numeric: numericChannel(ch), env: env(c.Room, ch)}
			sn.base, sn.shift = channelBaseline(ch)
			p.sensors = append(p.sensors, sn)
		}
		for _, eff := range r.Actions {
			pe := planEffect{inst: inst(eff.Device, eff.Room),
				cmd: Event{Device: eff.Device, Room: eff.Room, Channel: eff.Channel,
					Value: eff.State, RuleID: r.ID, Kind: KindCommand}}
			for _, d := range eff.Env {
				base, shift := channelBaseline(d.Channel)
				pe.pushes = append(pe.pushes, envPush{env: env(eff.Room, d.Channel),
					base: base, delta: float64(d.Sign) * shift})
			}
			pr.effects = append(pr.effects, pe)
		}
		p.rules = append(p.rules, pr)
		p.maxPerTick += 4 * len(pr.effects)
	}
	for k := range s.envLevel {
		number(p.envs, k)
	}
	p.ruleIDs = len(ids)
	p.maxPerTick += 1 + len(p.sensors)
	return p
}
