package fedproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"fexiot/internal/fedproto/codec"
)

// The federation wire carries one frame per Message:
//
//	frame  = length:u32 body                       length = len(body) ≤ maxFrame
//	body   = kind:varint clientID:varint dataSize:varint round:varint
//	         final:u8 codec:str modelSeq:uvarint baseSeq:uvarint
//	         n:uvarint layer×n
//	layer  = layer:varint updateNorm:f64
//	         n:uvarint str×n                       Names
//	         n:uvarint (rows:varint cols:varint)×n Shapes
//	         n:uvarint dense×n                     Data
//	         n:uvarint tensor×n                    Enc
//	dense  = n:uvarint f64×n
//	tensor = N:varint scale:f64 offset:f64
//	         n:uvarint f64×n  n:uvarint u8×n  n:uvarint u32×n   Vals, Q, Idx
//	str    = n:uvarint u8×n
//
// Integers are encoding/binary varints, fixed-width fields little-endian,
// and a float is its IEEE-754 bits, so every bit pattern (NaN payloads, −0,
// denormals) round-trips. Each list keeps its own count, as the Message
// does: a payload whose names, shapes and tensors disagree arrives as sent
// and is rejected by ValidateUpdate, not by the frame. codec.Tensor's
// WireBytes is the exact size of its tensor encoding.

// maxFrame bounds a frame body. A length prefix above it is rejected before
// anything is allocated for it; a paper-dims model is 435 KB.
const maxFrame = 1 << 28

// frameChunk is how far ahead of the bytes that have arrived a frame's
// buffer grows, so a lying length prefix commits little memory.
const frameChunk = 64 << 10

// appendFrame appends m's frame to b. It fails only when the body would
// exceed maxFrame, which the peer would reject.
func appendFrame(b []byte, m *Message) ([]byte, error) {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	b = binary.AppendVarint(b, int64(m.Kind))
	b = binary.AppendVarint(b, int64(m.ClientID))
	b = binary.AppendVarint(b, int64(m.DataSize))
	b = binary.AppendVarint(b, int64(m.Round))
	final := byte(0)
	if m.Final {
		final = 1
	}
	b = append(b, final)
	b = appendString(b, m.Codec)
	b = binary.AppendUvarint(b, m.ModelSeq)
	b = binary.AppendUvarint(b, m.BaseSeq)
	b = binary.AppendUvarint(b, uint64(len(m.Layers)))
	for i := range m.Layers {
		pl := &m.Layers[i]
		b = binary.AppendVarint(b, int64(pl.Layer))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pl.UpdateNorm))
		b = binary.AppendUvarint(b, uint64(len(pl.Names)))
		for _, s := range pl.Names {
			b = appendString(b, s)
		}
		b = binary.AppendUvarint(b, uint64(len(pl.Shapes)))
		for _, sh := range pl.Shapes {
			b = binary.AppendVarint(b, int64(sh[0]))
			b = binary.AppendVarint(b, int64(sh[1]))
		}
		b = binary.AppendUvarint(b, uint64(len(pl.Data)))
		for _, d := range pl.Data {
			b = appendFloats(b, d)
		}
		b = binary.AppendUvarint(b, uint64(len(pl.Enc)))
		for _, t := range pl.Enc {
			b = appendTensor(b, t)
		}
	}
	n := len(b) - at - 4
	if n > maxFrame {
		return b[:at], fmt.Errorf("fedproto: frame of %d bytes exceeds %d", n, maxFrame)
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(n))
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendFloats appends a dense tensor: its count, then 8 bytes a value.
func appendFloats(b []byte, d []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(d)))
	off := len(b)
	b = slices.Grow(b, 8*len(d))[:off+8*len(d)]
	dst := b[off:]
	for _, x := range d {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(x))
		dst = dst[8:]
	}
	return b
}

// appendTensor appends one codec tensor, t.WireBytes() bytes.
func appendTensor(b []byte, t codec.Tensor) []byte {
	b = binary.AppendVarint(b, int64(t.N))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Scale))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Offset))
	b = appendFloats(b, t.Vals)
	b = append(binary.AppendUvarint(b, uint64(len(t.Q))), t.Q...)
	b = binary.AppendUvarint(b, uint64(len(t.Idx)))
	for _, j := range t.Idx {
		b = binary.LittleEndian.AppendUint32(b, j)
	}
	return b
}

// recvBufs are the buffers a conn reads frames into, reused from frame to
// frame: a decoded message's tensors and q8 bytes alias them until the
// next read.
type recvBufs struct {
	hdr  [4]byte
	body []byte
	vals []float64
	idx  []uint32
}

// read reads exactly one frame from r — the length prefix, then the body,
// nothing past it — and decodes it.
func (rb *recvBufs) read(r io.Reader) (*Message, error) {
	if _, err := io.ReadFull(r, rb.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(rb.hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrMalformedUpdate, n, maxFrame)
	}
	b := rb.body[:0]
	for len(b) < n {
		// A buffer that already holds a frame this size takes it in one
		// read; otherwise it grows as the bytes arrive.
		end := n
		if cap(b) < n {
			end = min(n, len(b)+max(len(b), frameChunk))
		}
		got := len(b)
		b = slices.Grow(b, end-got)[:end]
		rb.body = b
		if _, err := io.ReadFull(r, b[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return rb.decode(b)
}

// decode parses one frame body. Anything that does not parse, or bytes
// left over, is an error wrapping ErrMalformedUpdate; no count is trusted
// past the bytes that remain, so nothing allocated outgrows the frame.
func (rb *recvBufs) decode(body []byte) (*Message, error) {
	d := frameDecoder{b: body, rb: rb, maxVals: len(body) / 8, maxIdx: len(body) / 4}
	m := &Message{
		Kind:     MsgKind(d.varint()),
		ClientID: d.varint(),
		DataSize: d.varint(),
		Round:    d.varint(),
	}
	switch d.byte() {
	case 0:
	case 1:
		m.Final = true
	default:
		d.fail("final flag is not 0 or 1")
	}
	m.Codec = d.string()
	m.ModelSeq = d.uvarint()
	m.BaseSeq = d.uvarint()
	// The smallest layer is 13 bytes: its id, norm and four empty counts.
	m.Layers = make([]LayerPayload, d.count(13))
	for i := range m.Layers {
		pl := &m.Layers[i]
		pl.Layer = d.varint()
		pl.UpdateNorm = d.f64()
		pl.Names = make([]string, d.count(1))
		for j := range pl.Names {
			pl.Names[j] = d.string()
		}
		pl.Shapes = make([][2]int, d.count(2))
		for j := range pl.Shapes {
			pl.Shapes[j] = [2]int{d.varint(), d.varint()}
		}
		pl.Data = make([]Floats, d.count(1))
		start := d.usedVals
		for j := range pl.Data {
			pl.Data[j] = d.floats()
		}
		if d.usedVals > start {
			pl.flat = d.vals[start:d.usedVals:d.usedVals]
		}
		// The smallest tensor is 20 bytes: N, scale, offset, three counts.
		pl.Enc = make([]codec.Tensor, d.count(20))
		for j := range pl.Enc {
			pl.Enc[j] = d.tensor()
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d bytes after the message", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// frameDecoder reads the fields of one frame body in order. The first
// failure sticks: every later read returns a zero value.
type frameDecoder struct {
	b   []byte
	rb  *recvBufs
	err error
	// The frame's floats and indices are carved in order from two slabs,
	// taken from rb at first use. A value takes 8 bytes of the body and an
	// index 4, so len(body)/8 and len(body)/4 bound what one frame needs.
	vals              []float64
	maxVals, usedVals int
	idx               []uint32
	maxIdx, usedIdx   int
}

func (d *frameDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: frame: %s", ErrMalformedUpdate, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

func (d *frameDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *frameDecoder) varint() int {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 || int64(int(x)) != x {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return int(x)
}

func (d *frameDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("body ends early")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *frameDecoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("body ends inside a float")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return x
}

// count reads a list length whose elements take at least size bytes each,
// and fails when they could not fit in what is left of the body.
func (d *frameDecoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *frameDecoder) string() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// floats decodes a dense tensor into the frame's float slab.
func (d *frameDecoder) floats() Floats {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	if d.vals == nil {
		if cap(d.rb.vals) < d.maxVals {
			d.rb.vals = make([]float64, d.maxVals)
		}
		d.vals = d.rb.vals[:d.maxVals]
	}
	v := d.vals[d.usedVals : d.usedVals+n : d.usedVals+n]
	d.usedVals += n
	src := d.b[:8*n]
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	d.b = d.b[8*n:]
	return v
}

// tensor decodes one codec tensor: Vals into the float slab, Idx into the
// index slab, and Q as the body's own bytes.
func (d *frameDecoder) tensor() codec.Tensor {
	t := codec.Tensor{N: d.varint(), Scale: d.f64(), Offset: d.f64(), Vals: d.floats()}
	if n := d.count(1); n > 0 {
		t.Q = d.b[:n:n]
		d.b = d.b[n:]
	}
	if n := d.count(4); n > 0 {
		if d.idx == nil {
			if cap(d.rb.idx) < d.maxIdx {
				d.rb.idx = make([]uint32, d.maxIdx)
			}
			d.idx = d.rb.idx[:d.maxIdx]
		}
		t.Idx = d.idx[d.usedIdx : d.usedIdx+n : d.usedIdx+n]
		d.usedIdx += n
		for i := range t.Idx {
			t.Idx[i] = binary.LittleEndian.Uint32(d.b[4*i:])
		}
		d.b = d.b[4*n:]
	}
	return t
}
