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
//	q8     per-tensor affine int8 quantisation: v ≈ Offset + Scale·q with
//	       Scale = (max−min)/255, so the per-coordinate error is ≤ Scale/2
//	topk   magnitude sparsification: the top ⌈Ratio·N⌉ coordinates by |v|
//	       survive (float32-truncated), the rest decode to zero
//
// Decode validates the frame before touching it — malformed tensors from
// untrusted peers must produce an error, never a panic — and every scheme
// is deterministic, so two encodes of the same vector are bit-identical.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Scheme names, as assigned on the wire.
const (
	Raw64 = "raw64"
	Q8    = "q8"
	TopK  = "topk"
)

// DefaultTopKRatio is the fraction of coordinates the topk scheme keeps.
const DefaultTopKRatio = 0.1

// Tensor is one encoded weight tensor. Exactly one representation is
// populated, selected by the codec that produced it:
//
//	raw64: Vals
//	q8:    Q plus the affine dequantisation parameters Scale/Offset
//	topk:  Idx (strictly ascending coordinates) and Vals (their values)
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
	// Encode encodes v, which the tensor does not retain.
	Encode(v []float64) Tensor
	// Decode reconstructs the vector, or reports why the frame is
	// malformed. The returned slice is freshly allocated.
	Decode(t Tensor) ([]float64, error)
	// DecodeTo is Decode into dst, which must hold exactly t.N values.
	DecodeTo(dst []float64, t Tensor) error
}

// scheme is the decoding half of a codec: check validates a frame, and fill
// decodes a checked one into dst of exactly t.N values.
type scheme interface {
	check(t Tensor) error
	fill(dst []float64, t Tensor)
}

// decode is every scheme's Decode: the vector is sized only once the frame
// has been checked.
func decode(s scheme, t Tensor) ([]float64, error) {
	if err := s.check(t); err != nil {
		return nil, err
	}
	out := make([]float64, t.N)
	s.fill(out, t)
	return out, nil
}

// decodeTo is every scheme's DecodeTo.
func decodeTo(s scheme, dst []float64, t Tensor) error {
	if err := s.check(t); err != nil {
		return err
	}
	if len(dst) != t.N {
		return fmt.Errorf("codec: decoding N=%d into %d values", t.N, len(dst))
	}
	s.fill(dst, t)
	return nil
}

// Names lists the registered schemes.
func Names() []string { return []string{Raw64, Q8, TopK} }

// New resolves a scheme by name; the empty string selects raw64, the
// dense format an update with no Codec declares.
func New(name string) (Codec, error) {
	switch name {
	case "", Raw64:
		return raw64Codec{}, nil
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

func (c raw64Codec) Decode(t Tensor) ([]float64, error)     { return decode(c, t) }
func (c raw64Codec) DecodeTo(dst []float64, t Tensor) error { return decodeTo(c, dst, t) }

func (raw64Codec) check(t Tensor) error {
	if len(t.Vals) != t.N || len(t.Q) != 0 || len(t.Idx) != 0 {
		return fmt.Errorf("codec: raw64 frame has %d values, %d bytes, %d indices for N=%d",
			len(t.Vals), len(t.Q), len(t.Idx), t.N)
	}
	return nil
}

func (raw64Codec) fill(dst []float64, t Tensor) { copy(dst, t.Vals) }

// --- q8 ----------------------------------------------------------------------

type q8Codec struct{}

func (q8Codec) Name() string { return Q8 }

func (q8Codec) Encode(v []float64) Tensor {
	t := Tensor{N: len(v), Q: make([]byte, len(v))}
	if len(v) == 0 {
		return t
	}
	// One scan finds the range. NaN compares false both ways, so it would
	// quantise around one silently: the first comparison that fails for
	// being below the range or NaN tells the two apart. An infinity shows
	// in the range itself.
	lo, hi := v[0], v[0]
	nan := false
	for _, x := range v {
		if !(x >= lo) {
			if x != x {
				nan = true
				break
			}
			lo = x
		} else if x > hi {
			hi = x
		}
	}
	t.Offset = lo
	t.Scale = (hi - lo) / 255
	if nan || !finite(lo) || !finite(hi) || !finite(t.Scale) {
		// Non-finite inputs cannot be quantised; ship a frame the decoder
		// rejects so the sender is evicted the same way a NaN-poisoned dense
		// update would be.
		t.Scale, t.Offset = math.NaN(), math.NaN()
		return t
	}
	if t.Scale > 0 {
		inv := 1 / t.Scale
		for i, x := range v {
			// math.Round clamped to [0, 255]. y ≥ 0, and for 0 ≤ y < 2⁵²
			// truncating y + (the largest double below ½) rounds half away
			// from zero exactly: unlike y + ½, the sum never rounds up
			// across an integer. A NaN y (0·∞ under a denormal scale)
			// leaves the 0 the reference's conversion gives.
			y := (x - lo) * inv
			if y < 254.5 {
				t.Q[i] = byte(int(y + 0.49999999999999994))
			} else if y >= 254.5 {
				t.Q[i] = 255
			}
		}
	}
	return t
}

func (c q8Codec) Decode(t Tensor) ([]float64, error)     { return decode(c, t) }
func (c q8Codec) DecodeTo(dst []float64, t Tensor) error { return decodeTo(c, dst, t) }

func (q8Codec) check(t Tensor) error {
	if len(t.Q) != t.N || len(t.Vals) != 0 || len(t.Idx) != 0 {
		return fmt.Errorf("codec: q8 frame has %d bytes, %d values, %d indices for N=%d",
			len(t.Q), len(t.Vals), len(t.Idx), t.N)
	}
	if !finite(t.Scale) || !finite(t.Offset) || t.Scale < 0 {
		return fmt.Errorf("codec: q8 frame has scale %v offset %v", t.Scale, t.Offset)
	}
	return nil
}

func (q8Codec) fill(dst []float64, t Tensor) {
	dst = dst[:len(t.Q)]
	for i, q := range t.Q {
		dst[i] = t.Offset + t.Scale*float64(q)
	}
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

func (c topkCodec) Decode(t Tensor) ([]float64, error)     { return decode(c, t) }
func (c topkCodec) DecodeTo(dst []float64, t Tensor) error { return decodeTo(c, dst, t) }

func (topkCodec) check(t Tensor) error {
	if len(t.Idx) != len(t.Vals) || len(t.Idx) > t.N || len(t.Q) != 0 {
		return fmt.Errorf("codec: topk frame has %d indices, %d values, %d bytes for N=%d",
			len(t.Idx), len(t.Vals), len(t.Q), t.N)
	}
	prev := -1
	for i, j := range t.Idx {
		if int(j) >= t.N || int(j) <= prev {
			return fmt.Errorf("codec: topk index %d at position %d (N=%d, previous %d)",
				j, i, t.N, prev)
		}
		prev = int(j)
	}
	return nil
}

func (topkCodec) fill(dst []float64, t Tensor) {
	clear(dst)
	for i, j := range t.Idx {
		dst[j] = t.Vals[i]
	}
}

// --- wire-size accounting ----------------------------------------------------

// WireBytes is the tensor's exact size in a fedproto frame: N as a varint,
// Scale and Offset as 8 bytes each, then Vals at 8 bytes a value, Q at one
// byte each and Idx at 4, each list after its varint count.
func (t Tensor) WireBytes() int64 {
	var buf [binary.MaxVarintLen64]byte
	uvarint := func(n int) int { return len(binary.AppendUvarint(buf[:0], uint64(n))) }
	n := len(binary.AppendVarint(buf[:0], int64(t.N))) + 16 +
		uvarint(len(t.Vals)) + 8*len(t.Vals) +
		uvarint(len(t.Q)) + len(t.Q) +
		uvarint(len(t.Idx)) + 4*len(t.Idx)
	return int64(n)
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
