package rules

import (
	"fmt"

	"fexiot/internal/rng"
)

// Archetype is a household profile: which devices a home favours and which
// platforms it automates with. Archetypes are the source of the inter-client
// heterogeneity the paper's clustered federated learning exploits — clients
// drawn from the same archetype have approximately i.i.d. rule
// distributions, clients from different archetypes do not (§III-B2).
type Archetype struct {
	Name            string
	DeviceWeights   map[string]float64
	PlatformWeights []float64 // indexed by Platform
	MultiActionProb float64   // chance a rule has two actions
}

// Archetypes returns the built-in household profiles.
func Archetypes() []Archetype {
	return []Archetype{
		{
			Name: "security",
			DeviceWeights: map[string]float64{
				"lock": 4, "door": 4, "camera": 4, "alarm": 3, "doorbell": 3,
				"motion sensor": 4, "contact sensor": 3, "window": 2,
				"garage door": 2, "presence sensor": 3, "light": 2,
				"phone": 4, "spreadsheet": 2, "email": 2,
			},
			PlatformWeights: []float64{3, 1, 3, 1, 2},
			MultiActionProb: 0.35,
		},
		{
			Name: "climate",
			DeviceWeights: map[string]float64{
				"thermostat": 4, "heater": 4, "air conditioner": 4, "fan": 3,
				"humidifier": 3, "dehumidifier": 2, "window": 3,
				"temperature sensor": 4, "humidity sensor": 3, "blind": 2,
				"phone": 3, "weather station": 3, "spreadsheet": 2,
			},
			PlatformWeights: []float64{2, 4, 2, 1, 1},
			MultiActionProb: 0.25,
		},
		{
			Name: "energy",
			DeviceWeights: map[string]float64{
				"plug": 4, "switch": 4, "light": 3, "washer": 2,
				"coffee maker": 2, "tv": 2, "presence sensor": 3,
				"illuminance sensor": 2, "thermostat": 2,
				"spreadsheet": 4, "phone": 3, "email": 2,
			},
			PlatformWeights: []float64{2, 2, 4, 1, 1},
			MultiActionProb: 0.2,
		},
		{
			Name: "entertainment",
			DeviceWeights: map[string]float64{
				"speaker": 4, "tv": 4, "light": 4, "blind": 2, "plug": 2,
				"motion sensor": 2, "button": 3, "vacuum": 2,
				"phone": 3, "calendar": 3,
			},
			PlatformWeights: []float64{1, 1, 2, 4, 4},
			MultiActionProb: 0.3,
		},
		{
			Name: "safety",
			DeviceWeights: map[string]float64{
				"smoke detector": 4, "co detector": 3, "leak sensor": 4,
				"water valve": 4, "sprinkler": 2, "alarm": 3, "fan": 2,
				"door": 2, "window": 2, "camera": 2,
				"phone": 4, "email": 3, "weather station": 2,
			},
			PlatformWeights: []float64{4, 2, 2, 1, 1},
			MultiActionProb: 0.4,
		},
	}
}

// Rooms a home may have; each generated home uses a subset. The qualified
// variants keep device instances distinct across the large multi-home rule
// pools the dataset builder chains over, mirroring the diversity of the
// 316k-applet IFTTT corpus.
var allRooms = []string{"kitchen", "bedroom", "bathroom", "hallway",
	"garage", "living room", "basement", "office", "master bedroom",
	"guest bedroom", "upstairs hallway", "laundry room", "dining room",
	"pantry", "study", "attic", "porch", "back yard", "nursery", "balcony",
	"closet", "den", "sunroom", "entryway"}

// globalChannels are channels whose conditions are home-global rather than
// room-scoped.
var globalChannels = map[Channel]bool{
	ChanTime: true, ChanVoice: true, ChanPresence: true, ChanWeather: true,
}

// instance is one physically installed device: a kind placed in a room.
type instance struct {
	dev  *Device
	room string
}

// Generator samples rules for one home. At construction it lays out the
// home's device inventory (device kinds placed in rooms); rules then
// reference those concrete instances, so multiple rules genuinely interact
// through shared devices — the substrate of interaction graphs.
type Generator struct {
	r         *rng.RNG
	arch      Archetype
	catalog   []Device
	rooms     []string
	sensors   []instance
	actuators []instance
	nextID    int
	prefix    string
}

// NewGenerator creates a rule generator for the given archetype; the seed
// fully determines its output.
func NewGenerator(seed int64, arch Archetype, idPrefix string) *Generator {
	g := &Generator{
		r:       rng.New(seed),
		arch:    arch,
		catalog: Catalog(),
		prefix:  idPrefix,
	}
	// Pick 5–9 rooms for this home.
	roomPerm := g.r.Perm(len(allRooms))
	nRooms := g.r.IntRange(5, 9)
	for _, idx := range roomPerm[:nRooms] {
		g.rooms = append(g.rooms, allRooms[idx])
	}
	// Install devices: archetype-favoured kinds appear in more rooms.
	for i := range g.catalog {
		d := &g.catalog[i]
		w := g.deviceWeight(d.Name)
		copies := 0
		switch {
		case w >= 3:
			copies = g.r.IntRange(1, 2)
		case w >= 1:
			copies = g.r.IntRange(0, 1)
		default:
			if g.r.Bool(0.25) {
				copies = 1
			}
		}
		roomPerm := g.r.Perm(len(g.rooms))
		for c := 0; c < copies && c < len(g.rooms); c++ {
			inst := instance{dev: d, room: g.rooms[roomPerm[c]]}
			if d.SenseChannel == ChanPresence {
				inst.room = "" // presence is home-global
			}
			if d.IsSensor() {
				g.sensors = append(g.sensors, inst)
			}
			if d.IsActuator() {
				g.actuators = append(g.actuators, inst)
			}
		}
	}
	// Guarantee a minimal inventory.
	if len(g.sensors) == 0 {
		g.sensors = append(g.sensors, instance{dev: g.byName("motion sensor"), room: g.rooms[0]})
	}
	if len(g.actuators) == 0 {
		g.actuators = append(g.actuators, instance{dev: g.byName("light"), room: g.rooms[0]})
	}
	return g
}

func (g *Generator) byName(name string) *Device {
	for i := range g.catalog {
		if g.catalog[i].Name == name {
			return &g.catalog[i]
		}
	}
	panic(fmt.Sprintf("rules: unknown device %q", name))
}

func (g *Generator) deviceWeight(name string) float64 {
	if w, ok := g.arch.DeviceWeights[name]; ok {
		return w
	}
	return 0.3 // long tail: every home has a few off-profile devices
}

func (g *Generator) pickSensor() instance {
	w := make([]float64, len(g.sensors))
	for i, inst := range g.sensors {
		w[i] = g.deviceWeight(inst.dev.Name)
	}
	return g.sensors[g.r.PickWeighted(w)]
}

func (g *Generator) pickActuator() instance {
	w := make([]float64, len(g.actuators))
	for i, inst := range g.actuators {
		w[i] = g.deviceWeight(inst.dev.Name)
	}
	return g.actuators[g.r.PickWeighted(w)]
}

// pickPlatform samples a platform according to the archetype profile.
func (g *Generator) pickPlatform() Platform {
	return Platform(g.r.PickWeighted(g.arch.PlatformWeights))
}

var timeStates = []string{"sunset", "sunrise", "night", "morning"}

// sampleTrigger draws a trigger condition. Voice platforms mostly trigger
// on spoken commands; other platforms mix sensor triggers, device-state
// triggers and schedules.
func (g *Generator) sampleTrigger(p Platform) Condition {
	if p.VoicePlatform() && g.r.Bool(0.7) {
		phrases := []string{"good night", "good morning", "movie time",
			"i am leaving", "i am home", "party time", "bedtime"}
		return Condition{Device: "voice", Channel: ChanVoice,
			State: rng.Pick(g.r, phrases)}
	}
	roll := g.r.Float64()
	switch {
	case roll < 0.55: // sensor trigger
		inst := g.pickSensor()
		c := Condition{
			Device:  inst.dev.Name,
			Room:    inst.room,
			Channel: inst.dev.SenseChannel,
			State:   rng.Pick(g.r, inst.dev.SenseStates),
		}
		if globalChannels[c.Channel] {
			c.Room = ""
		}
		return c
	case roll < 0.85: // device-state trigger ("the kitchen lights are on")
		inst := g.pickActuator()
		cmd := rng.Pick(g.r, inst.dev.Commands)
		return Condition{Device: inst.dev.Name, Room: inst.room,
			Channel: cmd.Channel, State: cmd.State}
	default: // schedule trigger
		return Condition{Device: "clock", Channel: ChanTime,
			State: rng.Pick(g.r, timeStates)}
	}
}

// sampleAction draws one effect.
func (g *Generator) sampleAction() Effect {
	inst := g.pickActuator()
	cmd := rng.Pick(g.r, inst.dev.Commands)
	return Effect{
		Device:    inst.dev.Name,
		Room:      inst.room,
		Verb:      cmd.Verb,
		Channel:   cmd.Channel,
		State:     cmd.State,
		Env:       cmd.Env,
		Sensitive: cmd.Sensitive,
	}
}

// Rule samples one automation rule on a sampled platform.
func (g *Generator) Rule() *Rule {
	return g.RuleOn(g.pickPlatform())
}

// RuleOn samples one automation rule for platform p.
func (g *Generator) RuleOn(p Platform) *Rule {
	trig := g.sampleTrigger(p)
	actions := []Effect{g.sampleAction()}
	if g.r.Bool(g.arch.MultiActionProb) {
		second := g.sampleAction()
		if second.Device != actions[0].Device || second.Room != actions[0].Room {
			actions = append(actions, second)
		}
	}
	g.nextID++
	r := &Rule{
		ID:       fmt.Sprintf("%s%d", g.prefix, g.nextID),
		Platform: p,
		Trigger:  trig,
		Actions:  actions,
	}
	r.Description = Describe(p, trig, actions)
	return r
}

// RuleSet samples the n rules deployed in one home.
func (g *Generator) RuleSet(n int) []*Rule {
	out := make([]*Rule, n)
	for i := range out {
		out[i] = g.Rule()
	}
	return out
}

// RuleSetOn samples n rules restricted to platform p (used for the
// homogeneous IFTTT dataset).
func (g *Generator) RuleSetOn(p Platform, n int) []*Rule {
	out := make([]*Rule, n)
	for i := range out {
		out[i] = g.RuleOn(p)
	}
	return out
}
