// Package fedproto implements a real wire protocol for FexIoT federated
// training: clients connect to a server over TCP, exchange layer payloads
// in length-prefixed binary frames (frame.go), and the server runs
// fed.ClusterRound — the same layer-wise clustering aggregation as the
// in-process simulator — over what arrived. The communication costs of
// Fig. 7 can therefore be measured on actual serialized bytes rather than
// estimated parameter counts.
package fedproto

import (
	"encoding/binary"
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
)

// Floats is one dense tensor. On the wire and in checkpoints it is exactly
// 8 little-endian bytes per value, so every bit pattern (NaN payloads, −0,
// denormals) round-trips unchanged; in a checkpoint those bytes are one gob
// byte string.
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
	// flat is Data end to end in one array, when they lie so (a decoded
	// frame, a reconstructed update): flatLayers hands it out instead of a
	// copy. gob skips it, so checkpoints never carry it.
	flat []float64
}

// Message is the single wire envelope, one frame per message.
type Message struct {
	Kind     MsgKind
	ClientID int
	DataSize int // |G_c| for FedAvg weighting (MsgHello; never negative)
	Round    int
	Final    bool           // set on the last MsgModel of a session
	Layers   []LayerPayload // MsgUpdate / MsgModel
	// Codec names the scheme: on the sync MsgModel it is the server's
	// assignment for the session's updates, on a MsgUpdate it declares how
	// the payloads are encoded (empty = raw64). A lossy scheme's payloads
	// are element-wise deltas against the model BaseSeq names.
	Codec string
	// ModelSeq (MsgModel) identifies this model snapshot server-uniquely;
	// BaseSeq (MsgUpdate) echoes the stamp of the model a delta update was
	// encoded against.
	ModelSeq uint64
	BaseSeq  uint64
}

// EncodeLayers lays the given layers of a ParamSet out as payloads. Their
// Data are views of p's values, not copies: a payload kept while p changes
// must be copied first.
func EncodeLayers(p *autodiff.ParamSet, layers []int, updates map[int]float64) []LayerPayload {
	var out []LayerPayload
	for _, l := range layers {
		pl := LayerPayload{Layer: l, UpdateNorm: updates[l]}
		for _, name := range p.LayerNames(l) {
			m := p.Get(name)
			r, c := m.Dims()
			pl.Names = append(pl.Names, name)
			pl.Shapes = append(pl.Shapes, [2]int{r, c})
			pl.Data = append(pl.Data, m.Data())
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

// Conn is a counted, framed protocol connection. Every Send and Recv arms
// a fresh socket deadline of the timeout the conn was wrapped with, so one
// peer that goes silent costs at most that long per message.
//
// A conn reuses its buffers from message to message: Send builds each frame
// in one, and a message Recv returns holds its dense tensors, codec values
// and q8 bytes in the others, so it is valid only until the next Recv on
// the conn. Recv is not safe for concurrent use.
type Conn struct {
	rw      io.ReadWriter // raw, counted
	raw     net.Conn
	timeout time.Duration

	sendMu sync.Mutex // serialises Send, which owns frame
	frame  []byte
	recv   recvBufs

	inBytes, outBytes atomic.Int64
	obsIn, obsOut     atomic.Pointer[obs.Counter]
}

// Wrap builds a protocol connection over a raw socket whose every Send and
// Recv must finish within timeout; zero or less never times out.
func Wrap(c net.Conn, timeout time.Duration) *Conn {
	pc := &Conn{raw: c, timeout: timeout}
	pc.rw = countingConn{Conn: c, pc: pc}
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

// Send writes one message as one frame, built straight from its tensors.
func (c *Conn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	frame, err := appendFrame(c.frame[:0], m)
	c.frame = frame
	if err != nil {
		return err
	}
	if c.timeout > 0 {
		c.raw.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err = c.rw.Write(frame)
	return err
}

// Recv reads one frame and nothing past it, so InBytes taken around a Recv
// is that message's size. The message aliases the conn's buffers until the
// next Recv. A Recv past the conn's timeout fails with a net.Error whose
// Timeout() is true; a frame that does not parse fails with an error
// wrapping ErrMalformedUpdate.
func (c *Conn) Recv() (*Message, error) {
	if c.timeout > 0 {
		c.raw.SetReadDeadline(time.Now().Add(c.timeout))
	}
	return c.recv.read(c.rw)
}

// Close closes the underlying socket.
func (c *Conn) Close() error { return c.raw.Close() }

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
