package fedproto

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fexiot/internal/fed"
	"fexiot/internal/fedproto/codec"
)

// encodeFrame is the frame Conn.Send writes for m.
func encodeFrame(tb testing.TB, m *Message) []byte {
	tb.Helper()
	b, err := appendFrame(nil, m)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// rawFrame prefixes a hand-built body with its length, so a seed can carry
// a body no Message would encode to.
func rawFrame(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// updateHeader is the body of a MsgUpdate from client 1 up to its layer
// count: kind, client, data size, round, final flag, codec, both stamps.
func updateHeader(codecName string) []byte {
	b := binary.AppendVarint(nil, int64(MsgUpdate))
	b = binary.AppendVarint(b, 1)
	b = append(b, 0, 0, 0) // data size, round, final
	b = appendString(b, codecName)
	return append(b, 0, 0) // model and base stamps
}

// layerHead starts layer l with one name and one 1×2 shape.
func layerHead(b []byte, l int) []byte {
	b = binary.AppendVarint(b, int64(l))
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.AppendUvarint(b, 1)
	b = appendString(b, fmt.Sprintf("l%d.w", l))
	b = binary.AppendUvarint(b, 1)
	return append(b, 2, 4) // varints 1 and 2
}

// raggedFrame is a two-layer MsgUpdate whose last dense tensor declares two
// values and holds 12 bytes: the frame ends inside a value.
func raggedFrame() []byte {
	b := updateHeader("")
	b = binary.AppendUvarint(b, 2)
	b = layerHead(b, 0)
	b = binary.AppendUvarint(b, 1)
	b = appendFloats(b, []float64{1, 2})
	b = binary.AppendUvarint(b, 0)
	b = layerHead(b, 1)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 2)
	return rawFrame(append(b, make([]byte, 12)...))
}

// overCountFrames are frames with a list count larger than the bytes left
// after it: the layer list, a dense tensor, a name, and a q8 tensor's
// quantised bytes. Each must fail before anything of that count is
// allocated.
func overCountFrames() [][]byte {
	layers := binary.AppendUvarint(updateHeader(""), 1<<40)
	dense := layerHead(binary.AppendUvarint(updateHeader(""), 1), 0)
	dense = binary.AppendUvarint(binary.AppendUvarint(dense, 1), 1<<20)
	dense = append(dense, make([]byte, 8)...)
	name := binary.AppendUvarint(updateHeader(""), 1)
	name = binary.AppendVarint(name, 0)
	name = binary.LittleEndian.AppendUint64(name, 0)
	name = binary.AppendUvarint(name, 1)
	name = append(binary.AppendUvarint(name, 1<<30), 'w')
	q8 := layerHead(binary.AppendUvarint(updateHeader(codec.Q8), 1), 0)
	q8 = binary.AppendUvarint(binary.AppendUvarint(q8, 0), 1)
	q8 = binary.AppendVarint(q8, 2)
	q8 = append(q8, make([]byte, 16)...) // scale, offset
	q8 = binary.AppendUvarint(binary.AppendUvarint(q8, 0), 1000)
	q8 = append(q8, 1, 2)
	return [][]byte{rawFrame(layers), rawFrame(dense), rawFrame(name), rawFrame(q8)}
}

// readFrame decodes data as one frame off a stream, the way Conn.Recv does.
func readFrame(data []byte) (*Message, error) {
	var rb recvBufs
	return rb.read(bytes.NewReader(data))
}

// TestRaggedDenseTensorRejected: a dense tensor that is not a whole number
// of 8-byte values fails the decode itself, as a malformed update — and so
// does every list whose count runs past the end of the frame.
func TestRaggedDenseTensorRejected(t *testing.T) {
	if _, err := readFrame(raggedFrame()); !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("decoding a 12-byte dense tensor: %v, want ErrMalformedUpdate", err)
	}
	for i, f := range overCountFrames() {
		if _, err := readFrame(f); !errors.Is(err, ErrMalformedUpdate) {
			t.Fatalf("over-count frame %d: %v, want ErrMalformedUpdate", i, err)
		}
	}
}

// TestRecvRejectsOversizedFrame: a length prefix above maxFrame fails
// before anything of that size is allocated, and a prefix within the bound
// whose bytes never come commits memory only as far as they do.
func TestRecvRejectsOversizedFrame(t *testing.T) {
	allocated := func(data []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	for _, n := range []uint32{maxFrame + 1, math.MaxUint32} {
		got, err := allocated(binary.LittleEndian.AppendUint32(nil, n))
		if !errors.Is(err, ErrMalformedUpdate) {
			t.Fatalf("length prefix %d: %v, want ErrMalformedUpdate", n, err)
		}
		if got > 1<<10 {
			t.Fatalf("length prefix %d allocated %d bytes", n, got)
		}
	}
	short := append(binary.LittleEndian.AppendUint32(nil, maxFrame), make([]byte, 100)...)
	got, err := allocated(short)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	if got > 4*frameChunk {
		t.Fatalf("100 bytes of a %d-byte frame allocated %d bytes", maxFrame, got)
	}

	// The same through a live conn: the peer's prefix fails the Recv.
	a, b := pipeConns(t, 0)
	if _, err := a.rw.Write(binary.LittleEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("Recv of an oversized prefix: %v, want ErrMalformedUpdate", err)
	}
}

// FuzzDecodeUpdate feeds arbitrary bytes through the exact path a remote
// update takes on the server: frame read and decode, codec decodeUpdate
// (against both a missing and a plausible base), ValidateUpdate,
// CheckFiniteUpdate, then the flatten the aggregator would perform.
// Whatever the bytes, the pipeline must return errors — never panic — and
// a frame that decodes re-encodes to a frame that decodes to the same
// bytes again.
func FuzzDecodeUpdate(f *testing.F) {
	update := func(layers []int) *Message {
		p := scriptParams()
		return &Message{Kind: MsgUpdate, ClientID: 1, Round: 2,
			Layers: EncodeLayers(p, layers, zeroNorms(p))}
	}
	f.Add(encodeFrame(f, update([]int{0, 1})))
	poisoned := update([]int{0, 1})
	poisoned.Layers[0].Data[0][0] = math.NaN()
	f.Add(encodeFrame(f, poisoned))
	f.Add(encodeFrame(f, update([]int{0})))
	// Codec frames: well-formed q8 and topk deltas against base 7, and a
	// frame whose quantised byte count lies about N.
	p := scriptParams()
	for _, name := range []string{codec.Q8, codec.TopK} {
		cdc, err := codec.New(name)
		if err != nil {
			f.Fatal(err)
		}
		lay, scheme := encodeUpdate(p, scriptParams(), []int{0, 1}, zeroNorms(p), cdc, new([]float64))
		f.Add(encodeFrame(f, &Message{Kind: MsgUpdate, ClientID: 1, Round: 2,
			Layers: lay, Codec: scheme, BaseSeq: 7}))
	}
	truncated := &Message{Kind: MsgUpdate, ClientID: 1, Codec: codec.Q8,
		Layers: []LayerPayload{{Layer: 0, Names: []string{"l0.w"},
			Shapes: [][2]int{{1, 2}}, Enc: []codec.Tensor{{N: 2, Q: []byte{1}}}}}}
	f.Add(encodeFrame(f, truncated))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x81, 0x03, 0x01})
	// Dense tensors that lie: 12 bytes (not a whole number of values), and
	// three values under a 1×2 shape.
	f.Add(raggedFrame())
	long := update([]int{0, 1})
	long.Layers[1].Data[0] = append(long.Layers[1].Data[0], 5)
	f.Add(encodeFrame(f, long))
	for _, fr := range overCountFrames() {
		f.Add(fr)
	}

	base := EncodeLayers(scriptParams(), []int{0, 1}, zeroNorms(p))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readFrame(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedUpdate) && !errors.Is(err, io.ErrUnexpectedEOF) && err != io.EOF {
				t.Fatalf("frame read failed outside ErrMalformedUpdate and EOF: %v", err)
			}
			return
		}
		again := encodeFrame(t, m)
		m2, err := readFrame(again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !bytes.Equal(encodeFrame(t, m2), again) {
			t.Fatal("a frame changed across decode and encode")
		}
		// Run the codec reconstruction both ways a server could: the
		// session has no base yet (nil) or a plausible snapshot stamped 7.
		// Decode mutates the message, so each path gets its own copy.
		for _, s := range []struct {
			b   []LayerPayload
			seq uint64
		}{{nil, 0}, {base, 7}} {
			m := *m
			m.Layers = append([]LayerPayload(nil), m.Layers...)
			if err := decodeUpdate(&m, s.b, s.seq, new([]float64)); err != nil {
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
			_ = updateOf(flatLayers(m.Layers), s.b, new([]float64))
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
// frame read and field uses. Malformed hellos must be rejected or ignored, never
// crash the accept loop.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeFrame(f, &Message{Kind: MsgHello, ClientID: 3, DataSize: 42}))
	f.Add(encodeFrame(f, &Message{Kind: MsgHello, ClientID: -1, DataSize: -7}))
	f.Add(encodeFrame(f, &Message{Kind: MsgUpdate, ClientID: 1}))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	// A codec name longer than the frame.
	hello := append(binary.AppendVarint(nil, int64(MsgHello)), 6, 84, 0, 0) // id 3, size 42
	f.Add(rawFrame(binary.AppendUvarint(hello, 1<<40)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readFrame(data)
		if err != nil {
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
