// Package lexicon is a curated smart-home mini-WordNet. It answers the four
// lexical-relation queries §III-A1 of the paper issues against WordNet —
// synonym, hypernym, meronym and holonym — over the vocabulary of IoT
// automation rules: devices, sensors, attributes, actions and environment
// concepts. The relations drive the one-hot causal-relation features of the
// action-trigger correlation classifier.
package lexicon

import "strings"

// Relation identifies a lexical relation between two words.
type Relation int

// The relation kinds the correlation features test for.
const (
	None     Relation = iota
	Synonym           // same synset: light ~ lamp
	Hypernym          // first is a kind of second: smoke detector → sensor
	Hyponym           // inverse of hypernym
	Meronym           // first is part of second: lock → door
	Holonym           // inverse of meronym
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case Synonym:
		return "synonym"
	case Hypernym:
		return "hypernym"
	case Hyponym:
		return "hyponym"
	case Meronym:
		return "meronym"
	case Holonym:
		return "holonym"
	default:
		return "none"
	}
}

// synsets groups interchangeable words. The first member is the canonical
// form used as the synset id.
var synsets = [][]string{
	{"light", "lamp", "bulb", "luminaire"},
	{"turn_on", "activate", "enable", "start", "power_on", "switch_on"},
	{"turn_off", "deactivate", "disable", "stop", "power_off", "switch_off", "shut"},
	{"open", "unclose"},
	{"close", "shut"},
	{"lock", "secure"},
	{"unlock", "unsecure"},
	{"detect", "sense", "notice"},
	{"notify", "alert", "message", "remind", "announce"},
	{"temperature", "heat_level", "warmth"},
	{"humidity", "moisture", "dampness"},
	{"illuminance", "brightness", "luminance", "light_level"},
	{"motion", "movement"},
	{"presence", "occupancy"},
	{"leak", "flood", "water_leak"},
	{"smoke", "fume"},
	{"co", "monoxide", "carbon_monoxide"},
	{"camera", "cam", "webcam"},
	{"thermostat", "temperature_controller"},
	{"heater", "furnace", "radiator"},
	{"conditioner", "ac", "air_conditioner", "cooler"},
	{"fan", "ventilator", "blower"},
	{"valve", "water_valve", "shutoff"},
	{"sprinkler", "irrigator"},
	{"alarm", "siren", "buzzer"},
	{"plug", "outlet", "socket"},
	{"door", "entry"},
	{"window", "casement"},
	{"blind", "curtain", "shade"},
	{"speaker", "sound_system"},
	{"tv", "television"},
	{"vacuum", "robot_vacuum", "hoover"},
	{"refrigerator", "fridge"},
	{"doorbell", "door_chime"},
	{"dim", "darken", "lower_brightness"},
	{"brighten", "raise_brightness"},
	{"increase", "raise", "boost"},
	{"decrease", "lower", "reduce", "drop"},
	{"record", "capture", "film"},
	{"arm", "engage"},
	{"disarm", "disengage"},
	{"switch", "toggle_switch", "relay"},
	{"phone", "smartphone", "mobile"},
	{"home", "house", "residence"},
	{"on", "active", "running", "enabled"},
	{"off", "inactive", "stopped", "disabled"},
	{"high", "elevated"},
	{"low", "reduced"},
	{"hot", "warm"},
	{"cold", "cool", "chilly"},
	{"wet", "damp", "moist"},
	{"dry", "arid"},
}

// hypernymEdges encode "X is a kind of Y" (word → parent concept).
var hypernymEdges = map[string]string{
	"light":        "device",
	"camera":       "device",
	"thermostat":   "device",
	"heater":       "appliance",
	"conditioner":  "appliance",
	"fan":          "appliance",
	"humidifier":   "appliance",
	"dehumidifier": "appliance",
	"vacuum":       "appliance",
	"valve":        "actuator",
	"sprinkler":    "actuator",
	"lock":         "actuator",
	"switch":       "actuator",
	"plug":         "actuator",
	"alarm":        "device",
	"speaker":      "device",
	"tv":           "appliance",
	"doorbell":     "device",
	"refrigerator": "appliance",
	"oven":         "appliance",
	"washer":       "appliance",
	"dryer":        "appliance",
	"appliance":    "device",
	"actuator":     "device",
	"sensor":       "device",
	"detector":     "sensor",
	"smoke":        "hazard",
	"co":           "hazard",
	"leak":         "hazard",
	"fire":         "hazard",
	"motion":       "event",
	"presence":     "event",
	"contact":      "event",
	"temperature":  "attribute",
	"humidity":     "attribute",
	"illuminance":  "attribute",
	"battery":      "attribute",
	"power":        "attribute",
	"door":         "opening",
	"window":       "opening",
	"gate":         "opening",
	"blind":        "covering",
	"hazard":       "event",
}

// meronymEdges encode "X is a part of Y".
var meronymEdges = map[string]string{
	"lock":     "door",
	"handle":   "door",
	"doorbell": "door",
	"bulb":     "light",
	"battery":  "sensor",
	"filter":   "conditioner",
	"valve":    "pipe",
	"blind":    "window",
	"kitchen":  "home",
	"bedroom":  "home",
	"bathroom": "home",
	"garage":   "home",
	"yard":     "home",
	"door":     "home",
	"window":   "home",
}

// Lexicon answers relation queries; construct with New.
type Lexicon struct {
	synsetOf  map[string]int
	canonical []string
	hyper     map[string]string
	mero      map[string]string
}

// New builds the default smart-home lexicon.
func New() *Lexicon {
	l := &Lexicon{
		synsetOf: map[string]int{},
		hyper:    map[string]string{},
		mero:     map[string]string{},
	}
	for i, ss := range synsets {
		l.canonical = append(l.canonical, ss[0])
		for _, w := range ss {
			l.synsetOf[normalize(w)] = i
		}
	}
	for k, v := range hypernymEdges {
		l.hyper[k] = v
	}
	for k, v := range meronymEdges {
		l.mero[k] = v
	}
	return l
}

func normalize(w string) string {
	return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(w)), " ", "_")
}

// Canonical returns the canonical synset member for w (w itself when the
// word is out of vocabulary).
func (l *Lexicon) Canonical(w string) string {
	if id, ok := l.synsetOf[normalize(w)]; ok {
		return l.canonical[id]
	}
	return normalize(w)
}

// AreSynonyms reports whether a and b share a synset.
func (l *Lexicon) AreSynonyms(a, b string) bool {
	ia, oka := l.synsetOf[normalize(a)]
	ib, okb := l.synsetOf[normalize(b)]
	return oka && okb && ia == ib
}

// HypernymChain returns the chain of ancestor concepts of w
// (canonicalised), nearest first, up to a small depth bound.
func (l *Lexicon) HypernymChain(w string) []string {
	cur := l.Canonical(w)
	var chain []string
	for i := 0; i < 6; i++ {
		parent, ok := l.hyper[cur]
		if !ok {
			break
		}
		chain = append(chain, parent)
		cur = parent
	}
	return chain
}

// IsHypernymOf reports whether parent is an ancestor concept of child.
func (l *Lexicon) IsHypernymOf(parent, child string) bool {
	p := l.Canonical(parent)
	for _, anc := range l.HypernymChain(child) {
		if anc == p {
			return true
		}
	}
	return false
}

// IsMeronymOf reports whether part is a part of whole.
func (l *Lexicon) IsMeronymOf(part, whole string) bool {
	p, w := l.Canonical(part), l.Canonical(whole)
	if l.mero[p] == w {
		return true
	}
	// One level of transitivity: bulb → light; light part-of nothing, but
	// kitchen → home covers room containment.
	if mid, ok := l.mero[p]; ok && l.mero[mid] == w {
		return true
	}
	return false
}

// Relate classifies the lexical relation between a and b, testing the four
// relation types the correlation features use. Ties resolve in the order
// synonym, hypernym, hyponym, meronym, holonym.
func (l *Lexicon) Relate(a, b string) Relation {
	switch {
	case l.AreSynonyms(a, b):
		return Synonym
	case l.IsHypernymOf(b, a):
		return Hypernym
	case l.IsHypernymOf(a, b):
		return Hyponym
	case l.IsMeronymOf(a, b):
		return Meronym
	case l.IsMeronymOf(b, a):
		return Holonym
	default:
		return None
	}
}

// RelationFeatures returns the one-hot causal-relation feature vector
// [synonym, hypernym, hyponym, meronym, holonym] aggregated over the cross
// product of two word lists: each slot is 1 when any pair exhibits the
// relation. This is feature (ii) of §III-A1.
func (l *Lexicon) RelationFeatures(as, bs []string) []float64 {
	out := make([]float64, 5)
	for _, a := range as {
		for _, b := range bs {
			switch l.Relate(a, b) {
			case Synonym:
				out[0] = 1
			case Hypernym:
				out[1] = 1
			case Hyponym:
				out[2] = 1
			case Meronym:
				out[3] = 1
			case Holonym:
				out[4] = 1
			}
		}
	}
	return out
}
