package serve

import (
	"strconv"
	"unicode/utf8"

	"fexiot/internal/eventlog"
	"fexiot/internal/rules"
)

// The /v1 request bodies have a fixed schema — DetectRequest over
// rules.Rule/Condition/Effect/EnvDelta and eventlog.Event — and clients send
// it in one plain shape: what json.Marshal emits. decodeDetectRequest and
// decodeEvents scan that shape in one pass, straight into the typed structs.
//
// The scanner only ever answers "this value" or "don't know". It declines
// (returns false) on anything outside the plain shape — a key that is not an
// exact-case field name, a repeated key, a backslash escape, invalid UTF-8,
// a null anywhere but in a slice position, an integer with a fraction,
// exponent or more than 18 digits, and every malformed input — and the
// caller then decodes the same bytes with encoding/json. Acceptance, values
// and error messages are therefore the stdlib's by construction; the only
// contract here is: answered ⇒ reflect.DeepEqual to what encoding/json
// decodes from the same bytes into a zero value, with a nil error. The fuzz
// targets and the every-field test in decode_test.go hold it to that.

// internSlots sizes the scanner's direct-mapped string table. An event log
// repeats a handful of device, room, value and rule-id strings across
// hundreds of events; interning makes each one allocation per body instead
// of one per occurrence. Longer strings (descriptions) are unique in
// practice and skip the table.
const (
	internSlots  = 128
	internMaxLen = 32
)

type scanner struct {
	b      []byte
	i      int
	bad    bool // sticky: set once, every later primitive is a no-op
	fresh  bool // the last token was a container's opening bracket
	intern [internSlots]string
}

// fail declines the whole body. The cursor jumps to the end so every loop
// over the input terminates.
func (s *scanner) fail() {
	s.bad = true
	s.i = len(s.b)
}

// peek returns the byte under the cursor, 0 at the end of input (a byte no
// token starts with).
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the exact bytes of word.
func (s *scanner) lit(word string) {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		s.fail()
		return
	}
	s.i += len(word)
}

// open consumes a container's opening bracket.
func (s *scanner) open(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.i++
	s.fresh = true
}

// more positions the cursor on the container's next member and reports
// whether there is one; the closing bracket is consumed. A comma is
// required between members and rejected before the first.
func (s *scanner) more(closer byte) bool {
	fresh := s.fresh
	s.fresh = false
	s.skip()
	switch {
	case s.peek() == closer:
		s.i++
		return false
	case fresh:
		return true
	case s.peek() != ',':
		s.fail()
		return false
	}
	s.i++
	s.skip()
	return true
}

// null consumes a null literal if one is next. Only slice positions ask:
// json.Marshal writes a nil slice as null.
func (s *scanner) null() bool {
	if s.peek() == 'n' {
		s.lit("null")
		return true
	}
	return false
}

// raw scans a string with no escapes, no control bytes and valid UTF-8, and
// returns the bytes between the quotes.
func (s *scanner) raw() []byte {
	if s.peek() != '"' {
		s.fail()
		return nil
	}
	start := s.i + 1
	ascii := true
	for j := start; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			tok := s.b[start:j]
			if !ascii && !utf8.Valid(tok) {
				s.fail() // encoding/json substitutes U+FFFD
				return nil
			}
			s.i = j + 1
			return tok
		case c < ' ' || c == '\\':
			s.fail()
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.fail()
	return nil
}

// key scans an object key through its colon, leaving the cursor on the
// value. once records the field in the object's seen mask and declines a
// repeat (encoding/json merges duplicates; that is its business).
func (s *scanner) key() []byte {
	k := s.raw()
	s.skip()
	if s.peek() != ':' {
		s.fail()
		return nil
	}
	s.i++
	s.skip()
	return k
}

func (s *scanner) once(seen *uint, field uint) {
	if *seen&(1<<field) != 0 {
		s.fail()
	}
	*seen |= 1 << field
}

func (s *scanner) str() string {
	tok := s.raw()
	if len(tok) == 0 {
		return ""
	}
	if len(tok) > internMaxLen {
		return string(tok)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range tok {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &s.intern[h%internSlots]
	if *slot != string(tok) {
		*slot = string(tok)
	}
	return *slot
}

func (s *scanner) boolean() bool {
	if s.peek() == 't' {
		s.lit("true")
		return true
	}
	s.lit("false")
	return false
}

// digits consumes a run of decimal digits and reports how many.
func (s *scanner) digits() int {
	start := s.i
	for s.peek()-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// intPart consumes the JSON integer grammar -?(0|[1-9][0-9]*).
func (s *scanner) intPart() {
	if s.peek() == '-' {
		s.i++
	}
	lead := s.i
	if n := s.digits(); n == 0 || (n > 1 && s.b[lead] == '0') {
		s.fail()
	}
}

// int64 scans an integer of at most 18 digits — no overflow to reason
// about, and nothing a generated timestamp or enum comes near.
func (s *scanner) int64() int64 {
	start := s.i
	s.intPart()
	if s.bad || s.i-start > 18 || s.peek() == '.' || s.peek()|0x20 == 'e' {
		s.fail()
		return 0
	}
	tok := s.b[start:s.i]
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var n int64
	for _, c := range tok {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n
}

func (s *scanner) int() int {
	n := s.int64()
	if int64(int(n)) != n {
		s.fail()
	}
	return int(n)
}

// float64 scans the JSON number grammar and converts it the way
// encoding/json does, with strconv.ParseFloat.
func (s *scanner) float64() float64 {
	start := s.i
	s.intPart()
	if s.peek() == '.' {
		s.i++
		if s.digits() == 0 {
			s.fail()
		}
	}
	if s.peek()|0x20 == 'e' {
		s.i++
		if s.peek() == '+' || s.peek() == '-' {
			s.i++
		}
		if s.digits() == 0 {
			s.fail()
		}
	}
	if s.bad {
		return 0
	}
	tok := s.b[start:s.i]
	if len(tok) == 1 { // a lone digit: the 0 every non-numeric event carries
		return float64(tok[0] - '0')
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.fail()
	}
	return f
}

func (s *scanner) envDeltas() []rules.EnvDelta {
	if s.null() {
		return nil
	}
	out := []rules.EnvDelta{}
	for s.open('['); s.more(']'); {
		var d rules.EnvDelta
		var seen uint
		for s.open('{'); s.more('}'); {
			switch string(s.key()) {
			case "Channel":
				s.once(&seen, 0)
				d.Channel = rules.Channel(s.int())
			case "Sign":
				s.once(&seen, 1)
				d.Sign = s.int()
			default:
				s.fail()
			}
		}
		out = append(out, d)
	}
	return out
}

func (s *scanner) effects() []rules.Effect {
	if s.null() {
		return nil
	}
	out := []rules.Effect{}
	for s.open('['); s.more(']'); {
		var e rules.Effect
		var seen uint
		for s.open('{'); s.more('}'); {
			switch string(s.key()) {
			case "Device":
				s.once(&seen, 0)
				e.Device = s.str()
			case "Room":
				s.once(&seen, 1)
				e.Room = s.str()
			case "Verb":
				s.once(&seen, 2)
				e.Verb = s.str()
			case "Channel":
				s.once(&seen, 3)
				e.Channel = rules.Channel(s.int())
			case "State":
				s.once(&seen, 4)
				e.State = s.str()
			case "Env":
				s.once(&seen, 5)
				e.Env = s.envDeltas()
			case "Sensitive":
				s.once(&seen, 6)
				e.Sensitive = s.boolean()
			default:
				s.fail()
			}
		}
		out = append(out, e)
	}
	return out
}

func (s *scanner) condition() rules.Condition {
	var c rules.Condition
	var seen uint
	for s.open('{'); s.more('}'); {
		switch string(s.key()) {
		case "Device":
			s.once(&seen, 0)
			c.Device = s.str()
		case "Room":
			s.once(&seen, 1)
			c.Room = s.str()
		case "Channel":
			s.once(&seen, 2)
			c.Channel = rules.Channel(s.int())
		case "State":
			s.once(&seen, 3)
			c.State = s.str()
		default:
			s.fail()
		}
	}
	return c
}

func (s *scanner) ruleSet() []*rules.Rule {
	if s.null() {
		return nil
	}
	out := []*rules.Rule{}
	for s.open('['); s.more(']'); {
		r := new(rules.Rule)
		var seen uint
		for s.open('{'); s.more('}'); {
			switch string(s.key()) {
			case "ID":
				s.once(&seen, 0)
				r.ID = s.str()
			case "Platform":
				s.once(&seen, 1)
				r.Platform = rules.Platform(s.int())
			case "Description":
				s.once(&seen, 2)
				r.Description = s.str()
			case "Trigger":
				s.once(&seen, 3)
				r.Trigger = s.condition()
			case "Actions":
				s.once(&seen, 4)
				r.Actions = s.effects()
			default:
				s.fail()
			}
		}
		out = append(out, r)
	}
	return out
}

func (s *scanner) event() eventlog.Event {
	var e eventlog.Event
	var seen uint
	for s.open('{'); s.more('}'); {
		switch string(s.key()) {
		case "Time":
			s.once(&seen, 0)
			e.Time = s.int64()
		case "Device":
			s.once(&seen, 1)
			e.Device = s.str()
		case "Room":
			s.once(&seen, 2)
			e.Room = s.str()
		case "Channel":
			s.once(&seen, 3)
			e.Channel = rules.Channel(s.int())
		case "Value":
			s.once(&seen, 4)
			e.Value = s.str()
		case "Numeric":
			s.once(&seen, 5)
			e.Numeric = s.float64()
		case "IsNumeric":
			s.once(&seen, 6)
			e.IsNumeric = s.boolean()
		case "Err":
			s.once(&seen, 7)
			e.Err = s.boolean()
		case "RuleID":
			s.once(&seen, 8)
			e.RuleID = s.str()
		case "Kind":
			s.once(&seen, 9)
			e.Kind = eventlog.EventKind(s.int())
		default:
			s.fail()
		}
	}
	return e
}

// appendEvent appends the next event object. The first one sizes the slice:
// a log's events encode to near-equal lengths, so the bytes left divided by
// the first event's length is the count to within a few, and the slice
// almost never regrows.
func (s *scanner) appendEvent(evs []eventlog.Event) []eventlog.Event {
	start := s.i
	e := s.event()
	if len(evs) == 0 && !s.bad {
		evs = make([]eventlog.Event, 0, (len(s.b)-s.i)/(s.i-start)+2)
	}
	return append(evs, e)
}

func (s *scanner) eventLog() eventlog.Log {
	if s.null() {
		return nil
	}
	out := eventlog.Log{}
	for s.open('['); s.more(']'); {
		out = s.appendEvent(out)
	}
	return out
}

// decodeDetectRequest decodes one JSON DetectRequest spanning the whole of
// body into *v, or declines and leaves *v untouched.
func decodeDetectRequest(body []byte, v *DetectRequest) bool {
	if v.Rules != nil || v.Events != nil {
		return false // encoding/json merges into existing values
	}
	s := scanner{b: body}
	var out DetectRequest
	var seen uint
	s.skip()
	for s.open('{'); s.more('}'); {
		switch string(s.key()) {
		case "rules":
			s.once(&seen, 0)
			out.Rules = s.ruleSet()
		case "events":
			s.once(&seen, 1)
			out.Events = s.eventLog()
		default:
			s.fail()
		}
	}
	s.skip()
	if s.bad || s.i != len(body) {
		return false
	}
	*v = out
	return true
}

// decodeEvents decodes an NDJSON batch — event objects separated by any or
// no whitespace, the framing json.Decoder accepts — or declines.
func decodeEvents(body []byte) ([]eventlog.Event, bool) {
	s := scanner{b: body}
	var evs []eventlog.Event
	for s.skip(); s.i < len(body); s.skip() {
		evs = s.appendEvent(evs)
	}
	return evs, !s.bad
}
