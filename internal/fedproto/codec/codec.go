// Package codec implements the compact update encodings of the fedproto
// wire protocol: pluggable schemes that turn one flattened weight tensor
// into a smaller wire representation and back. Clients encode per-round
// *deltas* against the last model the server sent them (fedproto arranges
// the delta bookkeeping; this package only sees vectors), because deltas
// are small, centred near zero and tolerate quantisation — the standard
// communication-efficiency levers of federated learning (Konečný et al.,
// McMahan et al.).
//
// Schemes:
//
//	raw64  verbatim float64 values — lossless
//	f32    values truncated to float32 precision (~relative 2^-24 error);
//	       gob's trailing-zero float compression shrinks them to ≈5 bytes
//	q8     per-tensor affine int8 quantisation: v ≈ Offset + Scale·q with
//	       Scale = (max−min)/255, so the per-coordinate error is ≤ Scale/2
//	topk   magnitude sparsification: the top ⌈Ratio·N⌉ coordinates by |v|
//	       survive (f32-truncated), the rest decode to zero
//
// Decode validates the frame before touching it — malformed tensors from
// untrusted peers must produce an error, never a panic — and every scheme
// is deterministic, so two encodes of the same vector are bit-identical.
package codec

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Scheme names, as negotiated on the wire.
const (
	Raw64 = "raw64"
	F32   = "f32"
	Q8    = "q8"
	TopK  = "topk"
)

// DefaultTopKRatio is the fraction of coordinates the topk scheme keeps.
const DefaultTopKRatio = 0.1

// Tensor is one encoded weight tensor. Exactly one representation is
// populated, selected by the codec that produced it:
//
//	raw64/f32: Vals (f32 stores float32-truncated float64s — same values,
//	           ~5 wire bytes each under gob's float compression)
//	q8:        Q plus the affine dequantisation parameters Scale/Offset
//	topk:      Idx (strictly ascending coordinates) and Vals (their values)
type Tensor struct {
	// N is the decoded element count.
	N      int
	Vals   []float64
	Q      []byte
	Scale  float64
	Offset float64
	Idx    []uint32
}

// Codec encodes and decodes one flattened tensor. Implementations are
// stateless and safe for concurrent use.
type Codec interface {
	Name() string
	Encode(v []float64) Tensor
	// Decode reconstructs the vector, or reports why the frame is
	// malformed. The returned slice is freshly allocated.
	Decode(t Tensor) ([]float64, error)
}

// Names lists the registered schemes in negotiation-preference order.
func Names() []string { return []string{Raw64, F32, Q8, TopK} }

// New resolves a scheme by name; the empty string selects raw64, the
// dense format an update with no Codec declares.
func New(name string) (Codec, error) {
	switch name {
	case "", Raw64:
		return raw64Codec{}, nil
	case F32:
		return f32Codec{}, nil
	case Q8:
		return q8Codec{}, nil
	case TopK:
		return topkCodec{Ratio: DefaultTopKRatio}, nil
	}
	return nil, fmt.Errorf("codec: unknown scheme %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// --- raw64 -------------------------------------------------------------------

type raw64Codec struct{}

func (raw64Codec) Name() string { return Raw64 }

func (raw64Codec) Encode(v []float64) Tensor {
	return Tensor{N: len(v), Vals: append([]float64(nil), v...)}
}

func (raw64Codec) Decode(t Tensor) ([]float64, error) {
	if len(t.Vals) != t.N || len(t.Q) != 0 || len(t.Idx) != 0 {
		return nil, fmt.Errorf("codec: raw64 frame has %d values, %d bytes, %d indices for N=%d",
			len(t.Vals), len(t.Q), len(t.Idx), t.N)
	}
	return append([]float64(nil), t.Vals...), nil
}

// --- f32 ---------------------------------------------------------------------

type f32Codec struct{}

func (f32Codec) Name() string { return F32 }

func (f32Codec) Encode(v []float64) Tensor {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(float32(x))
	}
	return Tensor{N: len(v), Vals: out}
}

func (f32Codec) Decode(t Tensor) ([]float64, error) {
	if len(t.Vals) != t.N || len(t.Q) != 0 || len(t.Idx) != 0 {
		return nil, fmt.Errorf("codec: f32 frame has %d values, %d bytes, %d indices for N=%d",
			len(t.Vals), len(t.Q), len(t.Idx), t.N)
	}
	return append([]float64(nil), t.Vals...), nil
}

// --- q8 ----------------------------------------------------------------------

type q8Codec struct{}

func (q8Codec) Name() string { return Q8 }

func (q8Codec) Encode(v []float64) Tensor {
	t := Tensor{N: len(v), Q: make([]byte, len(v))}
	if len(v) == 0 {
		return t
	}
	lo, hi := v[0], v[0]
	allFinite := finite(v[0])
	for _, x := range v[1:] {
		// NaN compares false both ways, so the min/max scan alone would
		// silently quantise around it; track finiteness explicitly.
		if !finite(x) {
			allFinite = false
			break
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	t.Offset = lo
	t.Scale = (hi - lo) / 255
	if !allFinite || !finite(t.Offset) || !finite(t.Scale) {
		// Non-finite inputs cannot be quantised; ship a frame the decoder
		// rejects so the sender is evicted the same way a NaN-poisoned dense
		// update would be.
		t.Scale, t.Offset = math.NaN(), math.NaN()
		return t
	}
	if t.Scale > 0 {
		inv := 1 / t.Scale
		for i, x := range v {
			q := math.Round((x - lo) * inv)
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
			t.Q[i] = byte(q)
		}
	}
	return t
}

func (q8Codec) Decode(t Tensor) ([]float64, error) {
	if len(t.Q) != t.N || len(t.Vals) != 0 || len(t.Idx) != 0 {
		return nil, fmt.Errorf("codec: q8 frame has %d bytes, %d values, %d indices for N=%d",
			len(t.Q), len(t.Vals), len(t.Idx), t.N)
	}
	if !finite(t.Scale) || !finite(t.Offset) || t.Scale < 0 {
		return nil, fmt.Errorf("codec: q8 frame has scale %v offset %v", t.Scale, t.Offset)
	}
	out := make([]float64, t.N)
	for i, q := range t.Q {
		out[i] = t.Offset + t.Scale*float64(q)
	}
	return out, nil
}

// --- topk --------------------------------------------------------------------

type topkCodec struct {
	// Ratio is the kept fraction of coordinates, (0, 1].
	Ratio float64
}

func (topkCodec) Name() string { return TopK }

func (c topkCodec) Encode(v []float64) Tensor {
	t := Tensor{N: len(v)}
	if len(v) == 0 {
		return t
	}
	k := int(math.Ceil(c.Ratio * float64(len(v))))
	if k < 1 {
		k = 1
	}
	if k > len(v) {
		k = len(v)
	}
	// Rank: magnitude descending, index ascending. Magnitudes are the bits
	// of |v[j]|, which order like the values and put NaN above +Inf, so a
	// non-finite input is always kept and the server rejects the update.
	// Values at the k-th largest magnitude are kept lowest index first.
	mag := make([]uint64, len(v))
	for j, x := range v {
		mag[j] = math.Float64bits(x) &^ (1 << 63)
	}
	// cut is the k-th largest magnitude; kept starts at how many exceed it.
	sorted := slices.Clone(mag)
	slices.Sort(sorted)
	cut := sorted[len(sorted)-k]
	i, _ := slices.BinarySearch(sorted, cut+1)
	kept := len(sorted) - i
	t.Idx, t.Vals = make([]uint32, 0, k), make([]float64, 0, k)
	for j, m := range mag {
		if m > cut || m == cut && kept < k {
			if m == cut {
				kept++
			}
			t.Idx = append(t.Idx, uint32(j))
			t.Vals = append(t.Vals, float64(float32(v[j])))
		}
	}
	return t
}

func (topkCodec) Decode(t Tensor) ([]float64, error) {
	if len(t.Idx) != len(t.Vals) || len(t.Idx) > t.N || len(t.Q) != 0 {
		return nil, fmt.Errorf("codec: topk frame has %d indices, %d values, %d bytes for N=%d",
			len(t.Idx), len(t.Vals), len(t.Q), t.N)
	}
	out := make([]float64, t.N)
	prev := -1
	for i, j := range t.Idx {
		if int(j) >= t.N || int(j) <= prev {
			return nil, fmt.Errorf("codec: topk index %d at position %d (N=%d, previous %d)",
				j, i, t.N, prev)
		}
		prev = int(j)
		out[j] = t.Vals[i]
	}
	return out, nil
}

// --- wire-size accounting ----------------------------------------------------

// WireBytes estimates the gob payload cost of the tensor in bytes: floats
// cost one length byte plus their significant bytes after gob's byte
// reversal (so f32-truncated values cost ≈5, full-entropy float64s ≈9),
// quantised bytes cost one each, and indices cost their varint size. The
// in-process simulator uses this estimate for Fig. 7-style communication
// accounting; the networked server measures real socket bytes instead.
func (t Tensor) WireBytes() int64 {
	n := int64(len(t.Q))
	for _, f := range t.Vals {
		n += gobFloatBytes(f)
	}
	for _, i := range t.Idx {
		n += gobUintBytes(uint64(i))
	}
	if t.Scale != 0 || t.Offset != 0 {
		n += gobFloatBytes(t.Scale) + gobFloatBytes(t.Offset)
	}
	return n
}

// gobFloatBytes is the wire cost of one float64 under gob: the bits are
// byte-reversed and sent as an unsigned integer, so trailing zero mantissa
// bytes are free.
func gobFloatBytes(f float64) int64 {
	bits := math.Float64bits(f)
	var rev uint64
	for i := 0; i < 8; i++ {
		rev = rev<<8 | bits&0xff
		bits >>= 8
	}
	return gobUintBytes(rev)
}

// gobUintBytes is the wire cost of one unsigned integer under gob: one
// byte below 128, otherwise a count byte plus the minimal big-endian
// representation.
func gobUintBytes(u uint64) int64 {
	if u < 128 {
		return 1
	}
	var n int64
	for ; u > 0; u >>= 8 {
		n++
	}
	return n + 1
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
