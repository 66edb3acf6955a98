package fedproto

import (
	"fmt"

	"fexiot/internal/autodiff"
	"fexiot/internal/fedproto/codec"
)

// The update-codec layer of the wire protocol.
//
// Negotiation: a client's MsgHello advertises the schemes it can encode
// (Message.Codecs); the server answers in the sync MsgModel with its
// assignment (Message.Codec) — its configured scheme when the client
// offers it, raw64 otherwise. A client that advertises nothing is assigned
// raw64, and an assignment left empty reads as raw64.
//
// Delta semantics: lossy schemes (f32, q8, topk) only ever encode
// element-wise deltas against a model the server previously sent — deltas
// are small and centred near zero, which is what makes quantisation and
// sparsification cheap in accuracy. The server stamps every MsgModel it
// sends with a session-unique ModelSeq and remembers the last few
// snapshots per client; a delta update echoes the stamp as BaseSeq, so the
// server reconstructs against the exact base the client encoded against
// even when a reply and the next update cross on the wire. An update with
// no shared base (a fresh round-0 join, or a server that never stamped a
// model) falls back to dense raw64, and a delta naming an unknown base is
// rejected as malformed — never misapplied.
//
// Every MsgUpdate is self-describing (Codec, Delta, BaseSeq), so the
// server decodes whatever arrives regardless of what it assigned;
// assignment only steers well-behaved clients.

// negotiateCodec picks the update scheme for one session: the server's
// preferred scheme when the client advertises it, raw64 otherwise.
func negotiateCodec(preferred string, offered []string) string {
	if preferred == "" || preferred == codec.Raw64 {
		return codec.Raw64
	}
	for _, o := range offered {
		if o == preferred {
			return preferred
		}
	}
	return codec.Raw64
}

// encodeUpdate builds one round's update payloads under the negotiated
// codec: per-tensor deltas of p against base under a lossy scheme, or the
// dense raw64 layers when the scheme is raw64 or no base is shared yet. It
// returns the payloads, the wire scheme name (empty for raw64, which
// decodeUpdate reads as raw64) and whether the values are deltas.
func encodeUpdate(p, base *autodiff.ParamSet, layers []int, norms map[int]float64,
	cdc codec.Codec) ([]LayerPayload, string, bool) {
	if cdc == nil || cdc.Name() == codec.Raw64 || base == nil {
		return EncodeLayers(p, layers, norms), "", false
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
	return out, cdc.Name(), true
}

// decodeUpdate validates an update's codec framing and reconstructs the
// dense absolute weights in place: after it returns nil, m.Layers carries
// Data exactly as a raw64 client would have sent it, so ValidateUpdate,
// CheckFiniteUpdate, the shape pin and every aggregator run unchanged.
// base is the model snapshot the update moved from (clientState.base); a
// delta must name it by a non-zero BaseSeq. Remote input that fails any
// check is rejected with an error wrapping ErrMalformedUpdate.
func decodeUpdate(m *Message, base []LayerPayload) error {
	scheme := m.Codec
	if scheme == "" {
		scheme = codec.Raw64
	}
	if scheme == codec.Raw64 {
		if m.Delta {
			return fmt.Errorf("%w: raw64 update flagged as delta", ErrMalformedUpdate)
		}
		for l := range m.Layers {
			if len(m.Layers[l].Enc) != 0 {
				return fmt.Errorf("%w: raw64 update carries encoded tensors", ErrMalformedUpdate)
			}
		}
		return nil
	}
	cdc, err := codec.New(scheme)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedUpdate, err)
	}
	if m.Delta && (m.BaseSeq == 0 || base == nil) {
		return fmt.Errorf("%w: delta update against unknown base %d", ErrMalformedUpdate, m.BaseSeq)
	}
	for l := range m.Layers {
		pl := &m.Layers[l]
		if len(pl.Data) != 0 {
			return fmt.Errorf("%w: %s update mixes dense and encoded tensors",
				ErrMalformedUpdate, scheme)
		}
		pl.Data = make([]Floats, len(pl.Enc))
		for i, t := range pl.Enc {
			vals, err := cdc.Decode(t)
			if err != nil {
				return fmt.Errorf("%w: layer %d tensor %d: %v", ErrMalformedUpdate, l, i, err)
			}
			if m.Delta {
				if l >= len(base) || i >= len(base[l].Data) || len(base[l].Data[i]) != len(vals) {
					return fmt.Errorf("%w: layer %d tensor %d delta does not match the synced base",
						ErrMalformedUpdate, l, i)
				}
				bd := base[l].Data[i]
				for j := range vals {
					vals[j] += bd[j]
				}
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
