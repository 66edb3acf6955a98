package fusion

import (
	"fmt"
	"hash/fnv"

	"fexiot/internal/embed"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

// The node-feature signatures and the pool index of commit 71646be, kept
// verbatim (receivers renamed to parameters, the feature cache dropped from
// refNodeFeature) as the oracle the interned, position-numbered versions in
// construct.go and index.go are compared against: every signature call
// formats its key and runs Box–Muller again, every partner lookup builds
// its own seen-maps.

func refNodeFeature(enc *embed.Encoder, r *rules.Rule) ([]float64, graph.FeatureSpace) {
	var base []float64
	space := graph.WordSpace
	if r.Platform.VoicePlatform() {
		base = enc.Sentence(r.Description)
		space = graph.SentenceSpace
	} else {
		base = enc.RuleEmbedding(r.Description)
	}
	feat := make([]float64, 0, len(base)+2*SigDim)
	feat = append(feat, base...)
	feat = append(feat, refActionSignature(r)...)
	feat = append(feat, refTriggerSignature(r)...)
	return feat, space
}

func refRuleContentHash(b *Builder, r *rules.Rule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	str := func(s string) {
		putU64(uint64(len(s)))
		h.Write([]byte(s))
	}
	cond := func(c rules.Condition) {
		str(c.Device)
		str(c.Room)
		putU64(uint64(c.Channel))
		str(c.State)
	}
	putU64(b.featSeed)
	putU64(uint64(r.Platform))
	str(r.Description)
	cond(r.Trigger)
	putU64(uint64(len(r.Actions)))
	for _, a := range r.Actions {
		str(a.Device)
		str(a.Room)
		str(a.Verb)
		putU64(uint64(a.Channel))
		str(a.State)
		if a.Sensitive {
			putU64(1)
		} else {
			putU64(0)
		}
		putU64(uint64(len(a.Env)))
		for _, d := range a.Env {
			putU64(uint64(d.Channel))
			putU64(uint64(int64(d.Sign)))
		}
	}
	return h.Sum64()
}

func refInstanceKey(room, dev string, ch rules.Channel, state string) (string, float64) {
	if s := rules.StateSign(state); s != 0 {
		return fmt.Sprintf("inst:%s|%s|%d", room, dev, ch), float64(s)
	}
	return fmt.Sprintf("inst:%s|%s|%d|%s", room, dev, ch, state), 1
}

func refActionSignature(r *rules.Rule) []float64 {
	sig := make([]float64, SigDim)
	for _, a := range r.Actions {
		key, coef := refInstanceKey(a.Room, a.Device, a.Channel, a.State)
		axpy(sig, embed.HashVector(key, SigDim), coef)
		for _, d := range a.Env {
			axpy(sig, embed.HashVector(fmt.Sprintf("env:%s|%d", a.Room, d.Channel), SigDim),
				0.5*float64(d.Sign))
		}
	}
	return sig
}

func refTriggerSignature(r *rules.Rule) []float64 {
	sig := make([]float64, SigDim)
	t := r.Trigger
	key, coef := refInstanceKey(t.Room, t.Device, t.Channel, t.State)
	axpy(sig, embed.HashVector(key, SigDim), coef)
	return sig
}

type refPoolIndex struct {
	trigDirect map[condKey][]*rules.Rule // rules triggered by exactly this state
	trigEnv    map[envKey][]*rules.Rule  // rules triggered by this env push
	actDirect  map[condKey][]*rules.Rule // rules performing exactly this state change
	actEnv     map[envKey][]*rules.Rule  // rules whose actions push this env
}

func newRefPoolIndex(pool []*rules.Rule) *refPoolIndex {
	ix := &refPoolIndex{
		trigDirect: map[condKey][]*rules.Rule{},
		trigEnv:    map[envKey][]*rules.Rule{},
		actDirect:  map[condKey][]*rules.Rule{},
		actEnv:     map[envKey][]*rules.Rule{},
	}
	for _, r := range pool {
		t := r.Trigger
		ix.trigDirect[condKey{t.Device, t.Room, t.Channel, t.State}] =
			append(ix.trigDirect[condKey{t.Device, t.Room, t.Channel, t.State}], r)
		if s := rules.StateSign(t.State); s != 0 {
			k := envKey{t.Channel, s, t.Room}
			ix.trigEnv[k] = append(ix.trigEnv[k], r)
		}
		for _, a := range r.Actions {
			k := condKey{a.Device, a.Room, a.Channel, a.State}
			ix.actDirect[k] = append(ix.actDirect[k], r)
			for _, d := range a.Env {
				ek := envKey{d.Channel, d.Sign, a.Room}
				ix.actEnv[ek] = append(ix.actEnv[ek], r)
			}
		}
	}
	return ix
}

func (ix *refPoolIndex) Forward(anchor *rules.Rule) []*rules.Rule {
	var out []*rules.Rule
	seen := map[*rules.Rule]bool{anchor: true}
	add := func(rs []*rules.Rule) {
		for _, r := range rs {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	for _, a := range anchor.Actions {
		add(ix.trigDirect[condKey{a.Device, a.Room, a.Channel, a.State}])
		for _, d := range a.Env {
			add(ix.trigEnv[envKey{d.Channel, d.Sign, a.Room}])
		}
	}
	return out
}

func (ix *refPoolIndex) Backward(anchor *rules.Rule) []*rules.Rule {
	var out []*rules.Rule
	seen := map[*rules.Rule]bool{anchor: true}
	add := func(rs []*rules.Rule) {
		for _, r := range rs {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	t := anchor.Trigger
	add(ix.actDirect[condKey{t.Device, t.Room, t.Channel, t.State}])
	if s := rules.StateSign(t.State); s != 0 {
		add(ix.actEnv[envKey{t.Channel, s, t.Room}])
	}
	return out
}

func (ix *refPoolIndex) Neighbors(anchor *rules.Rule) []*rules.Rule {
	f := ix.Forward(anchor)
	b := ix.Backward(anchor)
	seen := map[*rules.Rule]bool{}
	var out []*rules.Rule
	for _, r := range append(f, b...) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
