package fedproto

import (
	"fmt"

	"fexiot/internal/autodiff"
	"fexiot/internal/fedproto/codec"
)

// The update-codec layer of the wire protocol.
//
// Assignment: the server names the session's update scheme in the sync
// MsgModel (Message.Codec, its -codec setting). A federation upgrades its
// server and clients together, so there is no offer to negotiate; a client
// that does not know the assigned name answers with raw64, always a legal
// encoding, and an assignment left empty reads as raw64.
//
// Delta semantics: lossy schemes (q8, topk) only ever encode element-wise
// deltas against the model the server last sent on this session — deltas
// are small and centred near zero, which is what makes quantisation and
// sparsification cheap in accuracy. The server stamps every MsgModel it
// sends with a unique ModelSeq and keeps the last one it sent on each
// session as that session's base; a delta update echoes the stamp as
// BaseSeq. The exchange strictly alternates — the client sends one update,
// then reads one reply — and every reply goes out on the conn whose update
// it answers, so a well-behaved client always names the session's base. An
// update with no shared base (a fresh round-0 join) goes dense raw64, and
// a delta naming any other base is rejected as malformed — never
// misapplied.

// encodeUpdate builds one round's update payloads under the session's
// codec: per-tensor deltas of p against base under a lossy scheme, or the
// dense raw64 layers when the scheme is raw64 or no base is shared yet. It
// returns the payloads and the wire scheme name (empty for raw64, which
// decodeUpdate reads as raw64).
func encodeUpdate(p, base *autodiff.ParamSet, layers []int, norms map[int]float64,
	cdc codec.Codec) ([]LayerPayload, string) {
	if cdc == nil || cdc.Name() == codec.Raw64 || base == nil {
		return EncodeLayers(p, layers, norms), ""
	}
	out := make([]LayerPayload, 0, len(layers))
	for _, l := range layers {
		pl := LayerPayload{Layer: l, UpdateNorm: norms[l]}
		for _, name := range p.LayerNames(l) {
			m := p.Get(name)
			r, c := m.Dims()
			cur := m.Data()
			prev := base.Get(name).Data()
			d := make([]float64, len(cur))
			for i := range cur {
				d[i] = cur[i] - prev[i]
			}
			pl.Names = append(pl.Names, name)
			pl.Shapes = append(pl.Shapes, [2]int{r, c})
			pl.Enc = append(pl.Enc, cdc.Encode(d))
		}
		out = append(out, pl)
	}
	return out, cdc.Name()
}

// decodeUpdate validates an update's codec framing and reconstructs the
// dense absolute weights in place: after it returns nil, m.Layers carries
// Data exactly as a raw64 client would have sent it, so ValidateUpdate,
// CheckFiniteUpdate, the shape pin and every aggregator run unchanged.
// base is the session's base model and baseSeq its stamp; a lossy update
// is a delta that must name it. Remote input that fails any check is
// rejected with an error wrapping ErrMalformedUpdate.
func decodeUpdate(m *Message, base []LayerPayload, baseSeq uint64) error {
	if m.Codec == "" || m.Codec == codec.Raw64 {
		for l := range m.Layers {
			if len(m.Layers[l].Enc) != 0 {
				return fmt.Errorf("%w: raw64 update carries encoded tensors", ErrMalformedUpdate)
			}
		}
		return nil
	}
	cdc, err := codec.New(m.Codec)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedUpdate, err)
	}
	if base == nil || m.BaseSeq != baseSeq {
		return fmt.Errorf("%w: delta update against base %d, the session's base is %d",
			ErrMalformedUpdate, m.BaseSeq, baseSeq)
	}
	for l := range m.Layers {
		pl := &m.Layers[l]
		if len(pl.Data) != 0 {
			return fmt.Errorf("%w: %s update mixes dense and encoded tensors",
				ErrMalformedUpdate, m.Codec)
		}
		pl.Data = make([]Floats, len(pl.Enc))
		for i, t := range pl.Enc {
			vals, err := cdc.Decode(t)
			if err != nil {
				return fmt.Errorf("%w: layer %d tensor %d: %v", ErrMalformedUpdate, l, i, err)
			}
			if l >= len(base) || i >= len(base[l].Data) || len(base[l].Data[i]) != len(vals) {
				return fmt.Errorf("%w: layer %d tensor %d delta does not match the synced base",
					ErrMalformedUpdate, l, i)
			}
			bd := base[l].Data[i]
			for j := range vals {
				vals[j] += bd[j]
			}
			pl.Data[i] = vals
		}
		pl.Enc = nil
	}
	return nil
}

// denseBytes is the raw64-equivalent payload size of dense layers — the
// denominator of the compression-ratio telemetry.
func denseBytes(layers []LayerPayload) int64 {
	var n int64
	for _, pl := range layers {
		for _, d := range pl.Data {
			n += int64(len(d)) * 8
		}
	}
	return n
}
