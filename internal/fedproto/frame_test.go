package fedproto

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fexiot/internal/fedproto/codec"
)

// TestWireBytesMatchesFrame holds codec.Tensor.WireBytes to the frame: for
// tensors of every scheme and size, and hand-made ones whose counts cross
// the varint boundaries, it is exactly the bytes appendTensor writes, and a
// frame carrying the tensor decodes to it field for field, float bits
// included. A q8 tensor costs one byte an element plus a fixed header.
func TestWireBytesMatchesFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tensors []codec.Tensor
	for _, n := range []int{0, 1, 2, 127, 128, 1000, 16384, 20000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for _, name := range codec.Names() {
			cdc, err := codec.New(name)
			if err != nil {
				t.Fatal(err)
			}
			tensors = append(tensors, cdc.Encode(v))
		}
	}
	tensors = append(tensors,
		codec.Tensor{N: -5, Scale: math.NaN(), Offset: math.Inf(-1)},
		codec.Tensor{N: 1 << 40, Idx: []uint32{0, 1 << 31, math.MaxUint32}, Vals: specialBits()[:3]},
		codec.Tensor{N: 300, Q: make([]byte, 300), Vals: specialBits()},
	)
	for i, tn := range tensors {
		enc := appendTensor(nil, tn)
		if int64(len(enc)) != tn.WireBytes() {
			t.Fatalf("tensor %d (N=%d, %d values, %d bytes, %d indices): frame spends %d bytes, WireBytes says %d",
				i, tn.N, len(tn.Vals), len(tn.Q), len(tn.Idx), len(enc), tn.WireBytes())
		}
		msg := &Message{Kind: MsgUpdate, Codec: codec.Q8, Layers: []LayerPayload{{Enc: []codec.Tensor{tn}}}}
		got, err := readFrame(encodeFrame(t, msg))
		if err != nil {
			t.Fatalf("tensor %d: %v", i, err)
		}
		back := got.Layers[0].Enc[0]
		if back.N != tn.N || !bytes.Equal(back.Q, tn.Q) || !slices.Equal(back.Idx, tn.Idx) ||
			!sameBits(back.Vals, tn.Vals) || !sameBits([]float64{back.Scale, back.Offset}, []float64{tn.Scale, tn.Offset}) {
			t.Fatalf("tensor %d changed on the wire:\nsent %+v\ngot  %+v", i, tn, back)
		}
	}
	q8, _ := codec.New(codec.Q8)
	if wb := q8.Encode(make([]float64, 1000)).WireBytes(); wb < 1000 || wb > 1030 {
		t.Fatalf("q8 of 1000 values costs %d wire bytes, want ≈1000", wb)
	}
}
