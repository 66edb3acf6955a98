package fed

import (
	"fmt"
	"math"
	"strings"

	"fexiot/internal/autodiff"
	"fexiot/internal/mat"
)

// The attacker model of the robustness evaluation: a Byzantine client runs
// the honest protocol (hello, local training, update upload) but corrupts
// what the server sees. Each attack below is a standard poisoning primitive
// from the FL robustness literature; together with the Aggregator menu they
// span the poison experiment's attack × defence table.

// Attack corrupts one client's pending update after local training: prev is
// the weight snapshot before the round's training and w the trained
// weights, which Corrupt rewrites in place, so the server-facing weights are
// the corrupted ones. The simulator's Client.LocalTrain and a networked
// client (fexclient -attack) call it alike.
type Attack interface {
	Name() string
	Corrupt(prev, w *autodiff.ParamSet)
}

// AttackNames lists the selectable attack names accepted by NewAttack (and
// the fexclient -attack flag).
func AttackNames() []string {
	return []string{"label-flip", "sign-flip", "scale", "nan", "replay"}
}

// NewAttack resolves an attack by name; "scale" accepts the default 10×
// factor. The empty string means honest (nil attack).
func NewAttack(name string) (Attack, error) {
	switch name {
	case "":
		return nil, nil
	case "label-flip":
		return LabelFlip{}, nil
	case "sign-flip":
		return SignFlip{}, nil
	case "scale":
		return ScaleAttack{K: 10}, nil
	case "nan":
		return NaNInject{}, nil
	case "replay":
		return &StaleReplay{}, nil
	default:
		return nil, fmt.Errorf("fed: unknown attack %q (valid: %s)",
			name, strings.Join(AttackNames(), ", "))
	}
}

// SignFlip sends W ← prev − ΔW: the update direction is reversed, steering
// gradient descent uphill. A classic untargeted model-poisoning attack.
type SignFlip struct{}

// Name identifies the attack.
func (SignFlip) Name() string { return "sign-flip" }

// Corrupt reverses the round's update.
func (SignFlip) Corrupt(prev, w *autodiff.ParamSet) {
	applyDelta(prev, w, func(d float64) float64 { return -d })
}

// ScaleAttack sends W ← prev + K·ΔW: a boosted update that dominates any
// unweighted mean (the "model replacement" scaling of backdoor attacks).
type ScaleAttack struct{ K float64 }

// Name identifies the attack.
func (a ScaleAttack) Name() string { return fmt.Sprintf("scale-%g", a.K) }

// Corrupt scales the round's update by K.
func (a ScaleAttack) Corrupt(prev, w *autodiff.ParamSet) {
	applyDelta(prev, w, func(d float64) float64 { return a.K * d })
}

// NaNInject poisons the update with NaN/Inf values — the numerically
// diverged client. Without a finiteness gate one such update turns the
// whole federation's mean into NaN in a single round.
type NaNInject struct{}

// Name identifies the attack.
func (NaNInject) Name() string { return "nan" }

// Corrupt overwrites every third weight with NaN and the one after it with
// +Inf.
func (NaNInject) Corrupt(_, w *autodiff.ParamSet) {
	d := w.Data()
	for i := range d {
		switch i % 3 {
		case 0:
			d[i] = math.NaN()
		case 1:
			d[i] = math.Inf(1)
		}
	}
}

// StaleReplay records the first update it observes and replays it every
// round thereafter (W ← prev + Δ₀): a freshness attack that drags the
// federation back toward round-0 state.
type StaleReplay struct {
	first *autodiff.ParamSet
}

// Name identifies the attack.
func (*StaleReplay) Name() string { return "replay" }

// Corrupt replaces the round's update with the recorded first-round update.
func (s *StaleReplay) Corrupt(prev, w *autodiff.ParamSet) {
	if s.first == nil {
		s.first = w.Sub(prev)
		return // round 0 is replayed faithfully
	}
	w.CopyFrom(prev)
	mat.Axpy(w.Data(), s.first.Data(), 1)
}

// LabelFlip flips every local training label before training — data
// poisoning rather than model poisoning, so the corrupted update is
// produced by honest optimisation on dishonest data. Installed once at
// wrap time; Corrupt is a no-op.
type LabelFlip struct{}

// Name identifies the attack.
func (LabelFlip) Name() string { return "label-flip" }

// Corrupt does nothing: the poison is in the flipped dataset.
func (LabelFlip) Corrupt(_, _ *autodiff.ParamSet) {}

// applyDelta rewrites the pending update in place: w ← prev + f(w − prev)
// element-wise.
func applyDelta(prev, w *autodiff.ParamSet, f func(float64) float64) {
	wd, pd := w.Data(), prev.Data()
	for i := range wd {
		wd[i] = pd[i] + f(wd[i]-pd[i])
	}
}

// MakeByzantine turns a client hostile: atk corrupts every subsequent
// update right after local training. LabelFlip additionally flips the
// client's local dataset labels immediately. A nil attack restores honesty.
func MakeByzantine(c *Client, atk Attack) {
	c.byz = atk
	if _, ok := atk.(LabelFlip); ok {
		for _, g := range c.Train {
			g.Label = !g.Label
		}
	}
}
