// Package fedproto implements a real wire protocol for FexIoT federated
// training: clients connect to a server over TCP, exchange gob-encoded
// layer payloads, and the server runs fed.ClusterRound — the same
// layer-wise clustering aggregation as the in-process simulator — over
// what arrived. The communication costs of
// Fig. 7 can therefore be measured on actual serialized bytes rather than
// estimated parameter counts.
package fedproto

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

// MsgKind tags protocol messages.
type MsgKind int

// Protocol message kinds.
const (
	MsgHello  MsgKind = iota // client → server: join with dataset size
	MsgUpdate                // client → server: layer payloads after local training
	MsgModel                 // server → client: aggregated layer payloads
	MsgDone                  // server → client: training finished
)

// Floats is one dense tensor. On the wire and in checkpoints it is a gob
// byte string of exactly 8 little-endian bytes per value, so every bit
// pattern (NaN payloads, −0, denormals) round-trips unchanged.
type Floats []float64

// GobEncode writes the values' IEEE-754 bits.
func (f Floats) GobEncode() ([]byte, error) {
	b := make([]byte, 8*len(f))
	for i, x := range f {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b, nil
}

// GobDecode rejects a byte string that is not whole values as malformed.
func (f *Floats) GobDecode(b []byte) error {
	if len(b)%8 != 0 {
		return fmt.Errorf("%w: dense tensor of %d bytes", ErrMalformedUpdate, len(b))
	}
	*f = make(Floats, len(b)/8)
	for i := range *f {
		(*f)[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// LayerPayload carries one layer's parameters on the wire. Exactly one of
// Data and Enc is populated: Data holds dense tensors (raw64 updates and
// every server→client model), Enc holds codec-encoded tensors on a compact
// MsgUpdate (decodeUpdate reconstructs Data from them before anything
// downstream looks at the payload).
type LayerPayload struct {
	Layer  int
	Names  []string
	Shapes [][2]int
	Data   []Floats
	// UpdateNorm is ‖ΔW_l‖ of the client's last local round as the client
	// reports it. Informational: the server checks it is finite and gates
	// Eq. (3) on the ΔW it measures itself against the model it sent.
	UpdateNorm float64
	// Enc carries the codec-encoded tensors of a non-raw64 update, one per
	// name, in Names order.
	Enc []codec.Tensor
}

// Message is the single wire envelope. The codec fields gob-encode to
// nothing at their zero values, so a raw64 update carries only its dense
// layers.
type Message struct {
	Kind     MsgKind
	ClientID int
	DataSize int // |G_c| for FedAvg weighting (MsgHello)
	Round    int
	Final    bool           // set on the last MsgModel of a session
	Layers   []LayerPayload // MsgUpdate / MsgModel
	// Codecs (MsgHello) advertises the update schemes the client can
	// encode, in preference order; absent means raw64 only.
	Codecs []string
	// Codec names the scheme: on the sync MsgModel it is the server's
	// assignment for the session's updates, on a MsgUpdate it declares how
	// the payloads are encoded (empty = raw64).
	Codec string
	// Delta marks MsgUpdate payloads as element-wise deltas against the
	// model snapshot BaseSeq names.
	Delta bool
	// ModelSeq (MsgModel) identifies this model snapshot session-uniquely;
	// BaseSeq (MsgUpdate) echoes the stamp of the model a delta update was
	// encoded against.
	ModelSeq uint64
	BaseSeq  uint64
}

// EncodeLayers extracts the given layers of a ParamSet into payloads.
func EncodeLayers(p *autodiff.ParamSet, layers []int, updates map[int]float64) []LayerPayload {
	var out []LayerPayload
	for _, l := range layers {
		pl := LayerPayload{Layer: l, UpdateNorm: updates[l]}
		for _, name := range p.LayerNames(l) {
			m := p.Get(name)
			r, c := m.Dims()
			pl.Names = append(pl.Names, name)
			pl.Shapes = append(pl.Shapes, [2]int{r, c})
			pl.Data = append(pl.Data, append([]float64(nil), m.Data()...))
		}
		out = append(out, pl)
	}
	return out
}

// ApplyLayers writes payloads back into a ParamSet.
func ApplyLayers(p *autodiff.ParamSet, layers []LayerPayload) error {
	for _, pl := range layers {
		for i, name := range pl.Names {
			m := p.Get(name)
			r, c := m.Dims()
			if pl.Shapes[i] != [2]int{r, c} {
				return fmt.Errorf("fedproto: %s shape %v want %dx%d",
					name, pl.Shapes[i], r, c)
			}
			copy(m.Data(), pl.Data[i])
		}
	}
	return nil
}

// countingConn wraps a connection and tallies transferred bytes, mirroring
// each tally into the (possibly nil) observability counters installed by
// Conn.Instrument. The tallies are atomics: Read and Write are the
// per-syscall hot path, and InBytes/OutBytes readers (metrics scrapes,
// per-update wire-byte deltas) must never contend with a blocked decode.
type countingConn struct {
	net.Conn
	pc *Conn
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.pc.inBytes.Add(int64(n))
	c.pc.obsIn.Load().Add(int64(n)) // nil-safe
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.pc.outBytes.Add(int64(n))
	c.pc.obsOut.Load().Add(int64(n)) // nil-safe
	return n, err
}

// Conn is a counted, gob-framed protocol connection.
type Conn struct {
	enc *gob.Encoder
	dec *gob.Decoder
	raw net.Conn

	sendMu sync.Mutex // serialises Send: gob encoders are not goroutine-safe

	inBytes, outBytes atomic.Int64
	obsIn, obsOut     atomic.Pointer[obs.Counter]

	mu         sync.Mutex
	opDeadline time.Duration
	// readArmed/writeArmed record that the deadline currently on the socket
	// was armed by Recv/Send itself (not by an explicit SetReadDeadline /
	// SetWriteDeadline caller), so the next op-deadline-free call knows to
	// clear it instead of letting it poison a blocking read or write.
	readArmed, writeArmed bool
}

// Wrap builds a protocol connection over a raw socket.
func Wrap(c net.Conn) *Conn {
	pc := &Conn{raw: c}
	counted := countingConn{Conn: c, pc: pc}
	pc.enc = gob.NewEncoder(counted)
	pc.dec = gob.NewDecoder(counted)
	return pc
}

// Instrument mirrors this connection's byte tallies into observability
// counters (either may be nil). The server installs its bytes_received /
// bytes_sent counters here at admission so per-connection accounting and
// the scrapeable totals stay in lockstep.
func (c *Conn) Instrument(in, out *obs.Counter) {
	c.obsIn.Store(in)
	c.obsOut.Store(out)
}

// armWrite arms the socket write deadline for one Send when a per-op
// deadline is configured — and, crucially, clears a deadline a previous
// Send armed when it no longer is: after SetOpDeadline(0) a stale deadline
// must not fail a later blocking Send with a spurious timeout. Deadlines
// armed directly via SetWriteDeadline are the caller's to manage and are
// left alone.
func (c *Conn) armWrite() {
	c.mu.Lock()
	d := c.opDeadline
	wasArmed := c.writeArmed
	c.writeArmed = d > 0
	c.mu.Unlock()
	if d > 0 {
		c.raw.SetWriteDeadline(time.Now().Add(d))
	} else if wasArmed {
		c.raw.SetWriteDeadline(time.Time{})
	}
}

// armRead is armWrite for the read side.
func (c *Conn) armRead() {
	c.mu.Lock()
	d := c.opDeadline
	wasArmed := c.readArmed
	c.readArmed = d > 0
	c.mu.Unlock()
	if d > 0 {
		c.raw.SetReadDeadline(time.Now().Add(d))
	} else if wasArmed {
		c.raw.SetReadDeadline(time.Time{})
	}
}

// Send writes one message.
func (c *Conn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.armWrite()
	return c.enc.Encode(m)
}

// Recv reads one message.
func (c *Conn) Recv() (*Message, error) {
	c.armRead()
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, err
	}
	return &m, nil
}

// SetOpDeadline makes every subsequent Send and Recv arm a fresh deadline
// of d on the socket (zero disables). Client sessions use it so a server
// that silently evicts them cannot park them in Recv forever.
func (c *Conn) SetOpDeadline(d time.Duration) {
	c.mu.Lock()
	c.opDeadline = d
	c.mu.Unlock()
}

// Close closes the underlying socket.
func (c *Conn) Close() error { return c.raw.Close() }

// SetReadDeadline bounds the next Recv; a zero time clears the deadline.
// A Recv past the deadline fails with a net timeout error. The caller owns
// a deadline set this way: Recv will not clear it even with a zero op
// deadline (the server's round-timeout pattern depends on that).
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readArmed = false
	c.mu.Unlock()
	return c.raw.SetReadDeadline(t)
}

// SetWriteDeadline bounds the next Send; a zero time clears the deadline.
// As with SetReadDeadline, the caller owns it.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeArmed = false
	c.mu.Unlock()
	return c.raw.SetWriteDeadline(t)
}

// Bytes reports (received, sent) byte counts.
func (c *Conn) Bytes() (in, out int64) {
	return c.inBytes.Load(), c.outBytes.Load()
}

// InBytes reports bytes received so far. The server reads it around each
// Recv to measure one update's real wire size.
func (c *Conn) InBytes() int64 { return c.inBytes.Load() }

// ValidateUpdate checks that a remote MsgUpdate is well-formed before any
// payload is indexed: the right kind, exactly one payload per model layer
// in ascending layer-id order, and internally consistent
// names/shapes/data. Remote input that fails any check is rejected with an
// error wrapping ErrMalformedUpdate — a short, shuffled or padded update
// must never panic the server.
func ValidateUpdate(m *Message, numLayers int) error {
	if m.Kind != MsgUpdate {
		return fmt.Errorf("%w: message kind %d, want MsgUpdate", ErrMalformedUpdate, m.Kind)
	}
	if len(m.Layers) != numLayers {
		return fmt.Errorf("%w: %d layer payloads, want %d", ErrMalformedUpdate, len(m.Layers), numLayers)
	}
	for l, pl := range m.Layers {
		if pl.Layer != l {
			return fmt.Errorf("%w: payload %d carries layer id %d", ErrMalformedUpdate, l, pl.Layer)
		}
		if len(pl.Names) != len(pl.Shapes) || len(pl.Names) != len(pl.Data) {
			return fmt.Errorf("%w: layer %d has %d names, %d shapes, %d tensors",
				ErrMalformedUpdate, l, len(pl.Names), len(pl.Shapes), len(pl.Data))
		}
		for i, sh := range pl.Shapes {
			if sh[0] < 0 || sh[1] < 0 || len(pl.Data[i]) != sh[0]*sh[1] {
				return fmt.Errorf("%w: layer %d tensor %q has %d values, want %dx%d",
					ErrMalformedUpdate, l, pl.Names[i], len(pl.Data[i]), sh[0], sh[1])
			}
		}
	}
	return nil
}

// CheckFiniteUpdate rejects updates carrying NaN or ±Inf weights with an
// error wrapping ErrNonFiniteUpdate. It runs after ValidateUpdate on every
// remote update — one diverged client must never reach the aggregator,
// where a single non-finite coordinate poisons the global model. The scan
// is mat.CheckFinite per tensor plus the reported update norm.
func CheckFiniteUpdate(m *Message) error {
	for l, pl := range m.Layers {
		if !mat.AllFinite([]float64{pl.UpdateNorm}) {
			return fmt.Errorf("%w: layer %d update norm is %v", ErrNonFiniteUpdate, l, pl.UpdateNorm)
		}
		for i, d := range pl.Data {
			if j := mat.CheckFinite(d); j >= 0 {
				return fmt.Errorf("%w: layer %d tensor %q element %d is %v",
					ErrNonFiniteUpdate, l, pl.Names[i], j, d[j])
			}
		}
	}
	return nil
}

// LayerNorms computes per-layer update norms between two snapshots.
func LayerNorms(before, after *autodiff.ParamSet) map[int]float64 {
	return after.LayerDiffNorms(before)
}
