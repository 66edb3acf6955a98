package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"fexiot/internal/eventlog"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
)

// generatedHomes returns n (rules, cleaned log) pairs the way the examples,
// the smoke scripts and bench/ produce traffic: archetype generators and
// the event simulator, one attack-injected log in five.
func generatedHomes(n int) (homes [][]*rules.Rule, logs []eventlog.Log) {
	archs := rules.Archetypes()
	for i := 0; i < n; i++ {
		seed := int64(100 + i)
		home := rules.NewGenerator(seed, archs[i%len(archs)], fmt.Sprintf("h%d-", i)).RuleSet(6 + i%12)
		log := eventlog.NewSimulator(home, seed).Run(600)
		if i%5 == 4 {
			log = eventlog.Inject(log, eventlog.Attack(i%5), home, 0.3, seed)
		}
		homes = append(homes, home)
		logs = append(logs, eventlog.Clean(log))
	}
	return homes, logs
}

func mustMarshal(t testing.TB, v any, indent bool) []byte {
	t.Helper()
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// detectBodies is the generated half of the detect corpus: every home
// offline and online, compact and pretty-printed.
func detectBodies(t testing.TB, n int) [][]byte {
	homes, logs := generatedHomes(n)
	var out [][]byte
	for i, home := range homes {
		for _, indent := range []bool{false, true} {
			out = append(out,
				mustMarshal(t, DetectRequest{Rules: home}, indent),
				mustMarshal(t, DetectRequest{Rules: home, Events: logs[i]}, indent))
		}
	}
	return out
}

// ndjson renders a log one compact event per line.
func ndjson(t testing.TB, log eventlog.Log) []byte {
	var buf bytes.Buffer
	for _, e := range log {
		buf.Write(mustMarshal(t, e, false))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func eventBodies(t testing.TB, n int) [][]byte {
	_, logs := generatedHomes(n)
	var out [][]byte
	for _, log := range logs {
		out = append(out, ndjson(t, log))
		var pretty bytes.Buffer // whitespace-separated, not line-framed
		for _, e := range log {
			pretty.Write(mustMarshal(t, e, true))
			pretty.WriteString("\r\n\t ")
		}
		out = append(out, pretty.Bytes())
	}
	return out
}

// shapeCase is one hand-written body and whether the one-pass decoder must
// answer it. "Must decline" cases are the boundary of the plain shape; the
// differential check below holds either way.
type shapeCase struct {
	name, body string
	answered   bool
}

const plainRule = `{"ID":"r1","Platform":2,"Description":"d","Trigger":{"Device":"door","Room":"hall","Channel":8,"State":"open"},` +
	`"Actions":[{"Device":"lamp","Room":"hall","Verb":"turn on","Channel":5,"State":"on","Env":[{"Channel":5,"Sign":1}],"Sensitive":true}]}`

var detectShapes = []shapeCase{
	{"plain", `{"rules":[` + plainRule + `]}`, true},
	{"whitespace everywhere", " \r\n\t{ \"rules\" : [ " + plainRule + " ] }\n\n", true},
	{"partial objects", `{"rules":[{"ID":"r1"},{}],"events":[{"Time":3},{}]}`, true},
	{"empty slices", `{"rules":[{"Actions":[{"Env":[]}]}],"events":[]}`, true},
	{"null slices", `{"rules":[{"Actions":null},{"Actions":[{"Env":null}]}],"events":null}`, true},
	{"null rules", `{"rules":null}`, true},
	{"empty object", `{}`, true},
	{"non-ASCII UTF-8", `{"rules":[{"ID":"r°","Description":"heat to 21 °C — “cosy” mode ✓"}]}`, true},
	{"numbers", `{"events":[{"Time":-0,"Numeric":-0},{"Time":123456789012345678,"Numeric":21.5},` +
		`{"Numeric":1e-7},{"Numeric":1E+21},{"Numeric":-12.25e2},{"Numeric":12345678901234567890}]}`, true},

	{"null rule element", `{"rules":[null]}`, false},
	{"null scalar", `{"rules":[{"ID":null}]}`, false},
	{"null struct", `{"rules":[{"Trigger":null}]}`, false},
	{"null body", `null`, false},
	{"escape in value", `{"rules":[{"ID":"a\u0062"}]}`, false},
	{"escaped quote", `{"rules":[{"Description":"say \"hi\""}]}`, false},
	{"escape in key", `{"rul\u0065s":[]}`, false},
	{"html-escaped marshal", `{"rules":[{"Description":"if t \u003e 30"}]}`, false},
	{"duplicate key", `{"rules":[{"ID":"a","ID":"b"}]}`, false},
	{"duplicate top-level key", `{"rules":[{"ID":"a"}],"rules":[{"ID":"b"}]}`, false},
	{"case-variant key", `{"Rules":[{"id":"a"}]}`, false},
	{"case-variant field", `{"rules":[{"id":"a"}]}`, false},
	{"unknown field", `{"rules":[{"ID":"a","Extra":1}]}`, false},
	{"unknown top-level field", `{"rules":[],"extra":{"a":[1,2]}}`, false},
	{"fractional integer", `{"events":[{"Time":1.0}]}`, false},
	{"exponent integer", `{"events":[{"Time":1e3}]}`, false},
	{"19-digit integer", `{"events":[{"Time":1234567890123456789}]}`, false},
	{"overflowing integer", `{"events":[{"Time":99999999999999999999}]}`, false},
	{"overflowing float", `{"events":[{"Numeric":1e999}]}`, false},
	{"leading zero", `{"events":[{"Time":01}]}`, false},
	{"leading zero float", `{"events":[{"Numeric":00.5}]}`, false},
	{"bare minus", `{"events":[{"Time":-}]}`, false},
	{"bare fraction", `{"events":[{"Numeric":1.}]}`, false},
	{"bare exponent", `{"events":[{"Numeric":1e}]}`, false},
	{"plus sign", `{"events":[{"Time":+1}]}`, false},
	{"string for number", `{"events":[{"Time":"1"}]}`, false},
	{"number for string", `{"rules":[{"ID":7}]}`, false},
	{"number for bool", `{"events":[{"Err":1}]}`, false},
	{"object for slice", `{"rules":{}}`, false},
	{"invalid UTF-8", "{\"rules\":[{\"ID\":\"a\xffb\"}]}", false},
	{"truncated UTF-8", "{\"rules\":[{\"ID\":\"a\xe2\x80\"}]}", false},
	{"control byte in string", "{\"rules\":[{\"ID\":\"a\tb\"}]}", false},
	{"trailing garbage", `{"rules":[` + plainRule + `]} trailing garbage`, false},
	{"second value", `{"rules":[]}{"rules":[]}`, false},
	{"trailing comma", `{"rules":[` + plainRule + `,]}`, false},
	{"trailing member comma", `{"rules":[],}`, false},
	{"leading comma", `{,"rules":[]}`, false},
	{"missing comma", `{"rules":[{"ID":"a" "Platform":1}]}`, false},
	{"missing colon", `{"rules" []}`, false},
	{"truncated", `{"rules":[{"ID":"a","Trigger":{"Device":"do`, false},
	{"truncated after key", `{"rules":`, false},
	{"truncated literal", `{"events":[{"Err":tru`, false},
	{"empty", ``, false},
	{"not json", `{not json`, false},
	{"array body", `[]`, false},
}

var eventShapes = []shapeCase{
	{"plain", `{"Time":1,"Device":"lamp","Room":"hall","Channel":5,"Value":"on","Numeric":0,"IsNumeric":false,"Err":false,"RuleID":"r1","Kind":1}` + "\n", true},
	{"no framing", `{"Time":1}{"Time":2}`, true},
	{"blank lines", "\n\n{\"Time\":1}\n\n\n{\"Time\":2}\r\n", true},
	{"empty batch", "", true},
	{"whitespace batch", " \n\t", true},
	{"non-ASCII UTF-8", `{"Device":"thermostat","Value":"21 °C"}`, true},
	{"fractional numeric", `{"Numeric":21.53,"IsNumeric":true}`, true},

	{"bad second record", `{"Time":1,"Device":"a","Value":"on"}` + "\n" + `{broken`, false},
	{"array framing", `[{"Time":1}]`, false},
	{"comma framing", `{"Time":1},{"Time":2}`, false},
	{"null record", `null`, false},
	{"escape", `{"Value":"o\n"}`, false},
	{"duplicate key", `{"Time":1,"Time":2}`, false},
	{"case-variant key", `{"time":1}`, false},
	{"unknown field", `{"Time":1,"Extra":[{}]}`, false},
	{"truncated", `{"Time":1,"Device":"a`, false},
	{"trailing garbage", `{"Time":1} x`, false},
}

// diffDetect is the contract of decodeDetectRequest on one body: answered ⇒
// encoding/json decodes the same bytes without error to a deep-equal value;
// declined ⇒ the destination is untouched; and through ReadJSON the caller
// sees exactly encoding/json's value or encoding/json's error text.
func diffDetect(t *testing.T, body []byte) (answered bool) {
	t.Helper()
	var want DetectRequest
	wantErr := json.Unmarshal(body, &want)

	var got DetectRequest
	if answered = decodeDetectRequest(body, &got); answered {
		if wantErr != nil {
			t.Fatalf("answered a body encoding/json rejects (%v):\n%q", wantErr, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answer differs from encoding/json:\n got %+v\nwant %+v\nbody %q", got, want, body)
		}
	} else if !reflect.DeepEqual(got, DetectRequest{}) {
		t.Fatalf("declined but wrote %+v\nbody %q", got, body)
	}

	var in DetectRequest
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
	err := ReadJSON(httptest.NewRecorder(), req, 1<<20, &in)
	switch {
	case wantErr == nil && (err != nil || !reflect.DeepEqual(in, want)):
		t.Fatalf("ReadJSON = %+v, %v; encoding/json gives %+v\nbody %q", in, err, want, body)
	case wantErr != nil && (err == nil || err.Error() != "serve: bad request: bad JSON: "+wantErr.Error()):
		t.Fatalf("ReadJSON error %v; encoding/json's is %v\nbody %q", err, wantErr, body)
	}
	return answered
}

// diffEvents is the same contract for decodeEvents against the json.Decoder
// loop ReadEvents falls back to.
func diffEvents(t *testing.T, body []byte) (answered bool) {
	t.Helper()
	want, wantErr := stdlibEvents(body)
	got, answered := decodeEvents(body)
	if answered {
		if wantErr != nil {
			t.Fatalf("answered a batch encoding/json rejects (%v):\n%q", wantErr, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answer differs from encoding/json:\n got %+v\nwant %+v\nbody %q", got, want, body)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/s1/events", bytes.NewReader(body))
	in, err := ReadEvents(httptest.NewRecorder(), req, 1<<20, nil)
	switch {
	case wantErr == nil && (err != nil || !reflect.DeepEqual(in, want)):
		t.Fatalf("ReadEvents = %+v, %v; encoding/json gives %+v\nbody %q", in, err, want, body)
	case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
		t.Fatalf("ReadEvents error %v; encoding/json's is %v\nbody %q", err, wantErr, body)
	}
	return answered
}

// TestDecodeShapes pins both sides of the plain-shape boundary, and that
// every json.Marshal-produced body of generated homes and logs is inside it.
func TestDecodeShapes(t *testing.T) {
	for _, c := range detectShapes {
		if got := diffDetect(t, []byte(c.body)); got != c.answered {
			t.Errorf("detect %q: answered=%v, want %v", c.name, got, c.answered)
		}
	}
	for _, c := range eventShapes {
		if got := diffEvents(t, []byte(c.body)); got != c.answered {
			t.Errorf("events %q: answered=%v, want %v", c.name, got, c.answered)
		}
	}
	for i, body := range detectBodies(t, 20) {
		if !diffDetect(t, body) {
			t.Errorf("generated detect body %d fell off the fast path:\n%.300s", i, body)
		}
	}
	for i, body := range eventBodies(t, 20) {
		if !diffEvents(t, body) {
			t.Errorf("generated event batch %d fell off the fast path:\n%.300s", i, body)
		}
	}
}

// fillNonZero sets every field reachable from v to a non-zero value.
func fillNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x°")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(-2.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i))
		}
	default:
		t.Fatalf("%s: a %s field reached the request schema; teach decode.go and this test about it",
			v.Type(), v.Kind())
	}
}

// TestDecodeEveryField is the schema-drift guard: a field added to
// DetectRequest, Rule, Condition, Effect, EnvDelta or Event marshals to a
// key the scanner does not know, so the scanner declines and this fails —
// the field cannot silently push all traffic onto the fallback.
func TestDecodeEveryField(t *testing.T) {
	var full DetectRequest
	fillNonZero(t, reflect.ValueOf(&full).Elem())
	body := mustMarshal(t, full, false)
	var got DetectRequest
	if !decodeDetectRequest(body, &got) {
		t.Fatalf("fast path declined a fully populated request:\n%s", body)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v", got, full)
	}
	evs, ok := decodeEvents(ndjson(t, full.Events))
	if !ok || !reflect.DeepEqual(eventlog.Log(evs), full.Events) {
		t.Fatalf("NDJSON round trip: ok=%v\n got %+v\nwant %+v", ok, evs, full.Events)
	}
}

func FuzzDecodeDetectRequest(f *testing.F) {
	for _, c := range detectShapes {
		f.Add([]byte(c.body))
	}
	for _, body := range detectBodies(f, 3) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { diffDetect(t, body) })
}

func FuzzDecodeEvents(f *testing.F) {
	for _, c := range eventShapes {
		f.Add([]byte(c.body))
	}
	for _, body := range eventBodies(f, 3) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { diffEvents(t, body) })
}

// TestDecodeFallbackCounter proves the traffic: generated bodies never bump
// fexiot_serve_decode_fallback_total, one escaped string does.
func TestDecodeFallbackCounter(t *testing.T) {
	reg := obs.NewRegistry()
	fallbacks := DecodeFallbacks(reg)
	read := func(body []byte) {
		t.Helper()
		var in DetectRequest
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
		if err := ReadJSONCounted(httptest.NewRecorder(), req, 1<<20, &in, fallbacks); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range detectBodies(t, 20) {
		read(body)
	}
	for _, body := range eventBodies(t, 20) {
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/s1/events", bytes.NewReader(body))
		if _, err := ReadEvents(httptest.NewRecorder(), req, 1<<20, fallbacks); err != nil {
			t.Fatal(err)
		}
	}
	if n := fallbacks.Value(); n != 0 {
		t.Fatalf("%d generated bodies took the encoding/json path, want 0", n)
	}
	read([]byte(`{"rules":[{"ID":"r1","Description":"say \"hi\""}]}`))
	if n := fallbacks.Value(); n != 1 {
		t.Fatalf("fallback counter = %d after one escaped-string body, want 1", n)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fexiot_serve_decode_fallback_total 1") {
		t.Fatalf("counter missing from the exposition:\n%s", buf.String())
	}
}

var benchSink DetectRequest

// BenchmarkDecodeDetectRequest measures one online body (rules + a 600-s
// cleaned log) through the scanner and through encoding/json.
func BenchmarkDecodeDetectRequest(b *testing.B) {
	homes, logs := generatedHomes(1)
	body := mustMarshal(b, DetectRequest{Rules: homes[0], Events: logs[0]}, false)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = DetectRequest{}
			if !decodeDetectRequest(body, &benchSink) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = DetectRequest{}
			if err := json.Unmarshal(body, &benchSink); err != nil {
				b.Fatal(err)
			}
		}
	})
}
