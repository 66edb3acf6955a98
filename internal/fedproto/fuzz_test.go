package fedproto

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// rawTensor gob-encodes as whatever bytes it holds, so a seed can carry a
// dense tensor no Floats would produce; rawLayer and rawMessage mirror
// LayerPayload and Message around it (gob matches fields by name).
type rawTensor []byte

func (r rawTensor) GobEncode() ([]byte, error) { return r, nil }

type rawLayer struct {
	Layer  int
	Names  []string
	Shapes [][2]int
	Data   []rawTensor
}

type rawMessage struct {
	Kind     MsgKind
	ClientID int
	Layers   []rawLayer
}

// raggedFrame is a two-layer MsgUpdate whose first dense tensor is 12
// bytes long.
func raggedFrame(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rawMessage{Kind: MsgUpdate, ClientID: 1, Layers: []rawLayer{
		{Layer: 0, Names: []string{"l0.w"}, Shapes: [][2]int{{1, 2}}, Data: []rawTensor{make([]byte, 12)}},
		{Layer: 1, Names: []string{"l1.w"}, Shapes: [][2]int{{1, 2}}, Data: []rawTensor{make([]byte, 16)}},
	}}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRaggedDenseTensorRejected: a dense tensor that is not a whole number
// of 8-byte values fails the decode itself, as a malformed update.
func TestRaggedDenseTensorRejected(t *testing.T) {
	var m Message
	err := gob.NewDecoder(bytes.NewReader(raggedFrame(t))).Decode(&m)
	if !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("decoding a 12-byte dense tensor: %v, want ErrMalformedUpdate", err)
	}
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
	// Dense tensors that lie: 12 bytes (not a whole number of values), and
	// three values under a 1×2 shape.
	f.Add(raggedFrame(f))
	long := &Message{Kind: MsgUpdate, ClientID: 1,
		Layers: EncodeLayers(p, []int{0, 1}, zeroNorms(p))}
	long.Layers[1].Data[0] = append(long.Layers[1].Data[0], 5)
	f.Add(encodeFrame(f, long))

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

// FuzzLoadCheckpoint writes arbitrary bytes as a checkpoint file, once as
// they are and once behind a valid integrity footer (so the fuzzer reaches
// the gob body). A load never panics, never succeeds without a valid
// footer, and whatever loads saves and reloads to the same checkpoint,
// float bits included.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "fed.ckpt")
	ck := testCheckpoint(3)
	ck.Global[1].Data[0] = specialBits()
	if err := SaveCheckpoint(path, ck); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := valid[:len(valid)-ckptFooterSize]
	f.Add(valid)
	f.Add(body)
	f.Add(valid[:len(valid)-1])
	f.Add(body[:len(body)/2])
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})

	footed := func(body []byte) []byte {
		sum := sha256.Sum256(body)
		return append(append(append([]byte(nil), body...), sum[:]...), ckptMagic...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fed.ckpt")
		for _, file := range [][]byte{data, footed(data)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				if !errors.Is(err, ErrCheckpointCorrupt) {
					t.Fatalf("load failed outside ErrCheckpointCorrupt: %v", err)
				}
				continue
			}
			if n := len(file); n < ckptFooterSize || !bytes.Equal(footed(file[:n-ckptFooterSize]), file) {
				t.Fatal("a file without a valid footer loaded")
			}
			again := filepath.Join(dir, "again.ckpt")
			if err := SaveCheckpoint(again, ck); err != nil {
				t.Fatalf("re-saving a loaded checkpoint: %v", err)
			}
			ck2, err := LoadCheckpoint(again)
			if err != nil {
				t.Fatalf("reloading a re-saved checkpoint: %v", err)
			}
			if !sameCheckpoint(ck, ck2) {
				t.Fatalf("checkpoint changed across save and load:\n%+v\n%+v", ck, ck2)
			}
		}
	})
}

// sameCheckpoint compares two checkpoints field by field, floats by bits.
func sameCheckpoint(a, b *Checkpoint) bool {
	if a.Round != b.Round || !reflect.DeepEqual(a.Shapes, b.Shapes) || !reflect.DeepEqual(a.Names, b.Names) ||
		!reflect.DeepEqual(a.Strikes, b.Strikes) ||
		!reflect.DeepEqual(a.Stats, b.Stats) || len(a.Global) != len(b.Global) {
		return false
	}
	for l, pa := range a.Global {
		pb := b.Global[l]
		if pa.Layer != pb.Layer || !reflect.DeepEqual(pa.Names, pb.Names) ||
			!reflect.DeepEqual(pa.Shapes, pb.Shapes) || !sameBits([]float64{pa.UpdateNorm}, []float64{pb.UpdateNorm}) ||
			len(pa.Data) != len(pb.Data) || len(pa.Enc) != len(pb.Enc) {
			return false
		}
		for i := range pa.Data {
			if !sameBits(pa.Data[i], pb.Data[i]) {
				return false
			}
		}
		for i, ta := range pa.Enc {
			tb := pb.Enc[i]
			if ta.N != tb.N || !bytes.Equal(ta.Q, tb.Q) || !slices.Equal(ta.Idx, tb.Idx) ||
				!sameBits(ta.Vals, tb.Vals) || !sameBits([]float64{ta.Scale, ta.Offset}, []float64{tb.Scale, tb.Offset}) {
				return false
			}
		}
	}
	return true
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
