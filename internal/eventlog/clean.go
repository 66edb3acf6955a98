package eventlog

import (
	"fexiot/internal/jenks"
	"fexiot/internal/rules"
)

// Clean reproduces the log-cleaning step of §III-A2:
//
//  1. execution-error records are dropped (they do not change device state);
//  2. repetitive readings — consecutive reports of the same device with an
//     unchanged value — are collapsed to the first occurrence;
//  3. numeric sensor readings are converted to the logical levels app
//     descriptions use ("humidity is 32" → "humidity is low") with Jenks
//     natural breaks over the device's own reading history.
func Clean(log Log) Log {
	// Pass 1: number the device instances — through the "room|device"
	// string, so names that collide through the separator share a number as
	// they shared a key — and collect each one's numeric history.
	byName, byKey := map[Instance]int{}, map[string]int{}
	ids := make([]int32, len(log)) // event → instance, kept for pass 2
	var histories [][]float64
	survivors := 0 // events that are not error records: out's upper bound
	for i := range log {
		e := &log[i]
		inst := Instance{Device: e.Device, Room: e.Room}
		id, ok := byName[inst]
		if !ok {
			if id = number(byKey, inst.key()); id == len(histories) {
				histories = append(histories, nil)
			}
			byName[inst] = id
		}
		ids[i] = int32(id)
		if e.IsNumeric && !e.Err {
			histories[id] = append(histories[id], e.Numeric)
		}
		if !e.Err && e.Kind != KindError {
			survivors++
		}
	}
	type scale struct {
		breaks []float64
		names  []string
	}
	scales := make([]scale, len(histories))
	for id, h := range histories {
		if len(h) >= 2 {
			b := jenks.Breaks(h, 2)
			scales[id] = scale{b, jenks.LevelNames(len(b) + 1)}
		}
	}

	// Pass 2. The last value is kept per (instance, channel); channels past
	// the named ones all print "unknown" and so share an entry.
	out := make(Log, 0, survivors)
	lastValue := map[int]string{}
	for i, e := range log {
		if e.Err || e.Kind == KindError {
			continue
		}
		id := int(ids[i])
		if e.IsNumeric {
			e.Value = "low"
			if sc := scales[id]; len(sc.breaks) > 0 {
				e.Value = sc.names[jenks.Classify(e.Numeric, sc.breaks)]
			}
			e.IsNumeric = false
			e.Numeric = 0
		}
		ch := int(e.Channel)
		if ch > rules.NumChannels {
			ch = rules.NumChannels
		}
		vk := id*(rules.NumChannels+1) + ch
		if lastValue[vk] == e.Value && e.Kind == KindSensor {
			continue // repetitive reading
		}
		lastValue[vk] = e.Value
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil // as an append that never ran leaves it
	}
	return out
}

// EventTypes assigns a compact integer id to every distinct
// (device, room, channel, value) event shape — the vocabulary DeepLog's
// LSTM models (Table II).
type EventTypes struct {
	ids   map[string]int
	names []string
}

// NewEventTypes creates an empty vocabulary.
func NewEventTypes() *EventTypes {
	return &EventTypes{ids: map[string]int{}}
}

// ID interns the event's type, growing the vocabulary as needed.
func (v *EventTypes) ID(e Event) int {
	k := e.Room + "|" + e.Device + "|" + e.Channel.String() + "|" + e.Value
	if id, ok := v.ids[k]; ok {
		return id
	}
	id := len(v.names)
	v.ids[k] = id
	v.names = append(v.names, k)
	return id
}

// Lookup returns the id without growing (-1 when unseen).
func (v *EventTypes) Lookup(e Event) int {
	k := e.Room + "|" + e.Device + "|" + e.Channel.String() + "|" + e.Value
	if id, ok := v.ids[k]; ok {
		return id
	}
	return -1
}

// Size is the vocabulary size.
func (v *EventTypes) Size() int { return len(v.names) }

// Sequence converts a log into its event-type id sequence, interning new
// types when grow is true and mapping unseen types to a reserved id
// otherwise.
func (v *EventTypes) Sequence(log Log, grow bool) []int {
	out := make([]int, 0, len(log))
	for _, e := range log {
		if grow {
			out = append(out, v.ID(e))
		} else if id := v.Lookup(e); id >= 0 {
			out = append(out, id)
		} else {
			out = append(out, v.Size()) // unseen-type sentinel
		}
	}
	return out
}

// StatusVector summarises a cleaned log as a fixed-length numeric vector
// (per-channel positive-state counts and command counts) — the input
// representation for the IsolationForest baseline of Table II.
func StatusVector(log Log) []float64 {
	out := make([]float64, 2*rules.NumChannels)
	for _, e := range log {
		ch := int(e.Channel)
		if ch >= rules.NumChannels {
			continue
		}
		if rules.StateSign(e.Value) > 0 {
			out[ch]++
		}
		if e.Kind == KindCommand {
			out[rules.NumChannels+ch]++
		}
	}
	return out
}
