package fedproto

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"fexiot/internal/fed"
	"fexiot/internal/fedproto/codec"
)

// encodeFrame gob-encodes one message the way Conn.Send does.
func encodeFrame(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeUpdate feeds arbitrary bytes through the exact path a remote
// update takes on the server: gob decode, codec decodeUpdate (against both
// a missing and a plausible base), ValidateUpdate, CheckFiniteUpdate, then
// the flatten the aggregator would perform. Whatever the bytes, the
// pipeline must return errors — never panic.
func FuzzDecodeUpdate(f *testing.F) {
	p := scriptParams()
	valid := &Message{Kind: MsgUpdate, ClientID: 1, Round: 2,
		Layers: EncodeLayers(p, []int{0, 1}, zeroNorms(p))}
	f.Add(encodeFrame(f, valid))
	poisoned := &Message{Kind: MsgUpdate, ClientID: 1, Round: 2,
		Layers: EncodeLayers(p, []int{0, 1}, zeroNorms(p))}
	poisoned.Layers[0].Data[0][0] = math.NaN()
	f.Add(encodeFrame(f, poisoned))
	short := &Message{Kind: MsgUpdate, ClientID: 1,
		Layers: EncodeLayers(p, []int{0}, zeroNorms(p))}
	f.Add(encodeFrame(f, short))
	// Codec frames: a well-formed q8 delta, a topk delta naming a base the
	// server does not have, and a frame whose quantised byte count lies
	// about N.
	for _, name := range []string{codec.Q8, codec.TopK} {
		cdc, err := codec.New(name)
		if err != nil {
			f.Fatal(err)
		}
		lay, scheme, delta := encodeUpdate(p, scriptParams(), []int{0, 1}, zeroNorms(p), cdc)
		f.Add(encodeFrame(f, &Message{Kind: MsgUpdate, ClientID: 1, Round: 2,
			Layers: lay, Codec: scheme, Delta: delta, BaseSeq: 7}))
	}
	truncated := &Message{Kind: MsgUpdate, ClientID: 1, Codec: codec.Q8,
		Layers: []LayerPayload{{Layer: 0, Names: []string{"l0.w"},
			Shapes: [][2]int{{1, 2}}, Enc: []codec.Tensor{{N: 2, Q: []byte{1}}}}}}
	f.Add(encodeFrame(f, truncated))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x81, 0x03, 0x01})

	base := EncodeLayers(p, []int{0, 1}, zeroNorms(p))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
			return
		}
		// Run the codec reconstruction both ways a server could: the named
		// base is unknown (nil) or resolves to a plausible snapshot. Decode
		// mutates the message, so each path gets its own copy.
		for _, b := range [][]LayerPayload{nil, base} {
			m := m
			m.Layers = append([]LayerPayload(nil), m.Layers...)
			if err := decodeUpdate(&m, b); err != nil {
				continue
			}
			if err := ValidateUpdate(&m, 2); err != nil {
				continue
			}
			if err := CheckFiniteUpdate(&m); err != nil {
				continue
			}
			// A message that passed every gate must be safely flattened and
			// diffed against the base — what the round does with it next.
			_ = updateOf(flatLayers(m.Layers), b)
		}
	})
}

// FuzzDecodeHello drives arbitrary bytes through the admission handshake's
// decode and field uses. Malformed hellos must be rejected or ignored, never
// crash the accept loop.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeFrame(f, &Message{Kind: MsgHello, ClientID: 3, DataSize: 42}))
	f.Add(encodeFrame(f, &Message{Kind: MsgHello, ClientID: -1, DataSize: -7}))
	f.Add(encodeFrame(f, &Message{Kind: MsgUpdate, ClientID: 1}))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
			return
		}
		if m.Kind != MsgHello {
			return // admit closes the socket on anything but a hello
		}
		// The fields admit consumes: registration key and FedAvg weight. A
		// lying DataSize feeds the weighting rule, which must stay total.
		_ = m.ClientID
		_ = fed.QuorumWeights([]int{10, m.DataSize}, []int{0, 1})
	})
}
