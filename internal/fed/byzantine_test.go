package fed

import (
	"math"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
)

// twoParam builds a one-layer parameter set with two values.
func twoParam(a, b float64) *autodiff.ParamSet {
	p := autodiff.NewParamSet()
	p.Register("w", 0, mat.NewDenseData(1, 2, []float64{a, b}))
	return p
}

func TestSignFlipReversesUpdate(t *testing.T) {
	prev, after := twoParam(1, 1), twoParam(3, 0)
	SignFlip{}.Corrupt(prev, after) // Δ = (2, −1) → W = prev − Δ
	got := after.Flatten()
	if got[0] != -1 || got[1] != 2 {
		t.Fatalf("sign-flipped weights %v, want [-1 2]", got)
	}
}

func TestScaleAttackBoostsUpdate(t *testing.T) {
	prev, after := twoParam(1, 1), twoParam(2, 1.5)
	ScaleAttack{K: 10}.Corrupt(prev, after) // Δ = (1, 0.5) → prev + 10Δ
	got := after.Flatten()
	if got[0] != 11 || got[1] != 6 {
		t.Fatalf("scaled weights %v, want [11 6]", got)
	}
}

func TestNaNInjectPoisonsWeights(t *testing.T) {
	prev, after := twoParam(1, 1), twoParam(2, 2)
	NaNInject{}.Corrupt(prev, after)
	if mat.AllFinite(after.Flatten()) {
		t.Fatalf("NaN injection left finite weights %v", after.Flatten())
	}
}

func TestStaleReplayPinsFirstUpdate(t *testing.T) {
	atk := &StaleReplay{}
	// Round 0: Δ₀ = (1, 0) is recorded and passed through.
	prev, after := twoParam(0, 0), twoParam(1, 0)
	atk.Corrupt(prev, after)
	if got := after.Flatten(); got[0] != 1 || got[1] != 0 {
		t.Fatalf("round 0 must replay faithfully, got %v", got)
	}
	// Round 1: honest training moved to (5, 5), but the replay sends
	// prev + Δ₀ instead.
	prev, after = twoParam(2, 2), twoParam(5, 5)
	atk.Corrupt(prev, after)
	if got := after.Flatten(); got[0] != 3 || got[1] != 2 {
		t.Fatalf("replayed weights %v, want prev+Δ₀ = [3 2]", got)
	}
}

func TestMakeByzantineLabelFlip(t *testing.T) {
	c := &Client{Train: []*graph.Graph{{Label: true}, {Label: false}}}
	MakeByzantine(c, LabelFlip{})
	if c.Train[0].Label || !c.Train[1].Label {
		t.Fatal("label-flip left the local labels intact")
	}
	if c.byz == nil {
		t.Fatal("attack not installed")
	}
	MakeByzantine(c, nil)
	if c.byz != nil {
		t.Fatal("nil attack must restore honesty")
	}
}

func TestNewAttackRegistry(t *testing.T) {
	for _, name := range AttackNames() {
		atk, err := NewAttack(name)
		if err != nil {
			t.Fatalf("NewAttack(%q): %v", name, err)
		}
		if atk == nil {
			t.Fatalf("NewAttack(%q) returned nil attack", name)
		}
	}
	if atk, err := NewAttack(""); err != nil || atk != nil {
		t.Fatal("empty attack name must mean honest (nil, nil)")
	}
	if _, err := NewAttack("bogus"); err == nil {
		t.Fatal("unknown attack must error")
	}
	// Scale's default factor is the acceptance scenario's 10×.
	if atk, _ := NewAttack("scale"); atk.Name() != "scale-10" {
		t.Fatalf("scale attack name %q, want scale-10", atk.Name())
	}
}

// TestByzantineHookFiresInLocalTrain checks the wrapper corrupts updates
// through LocalTrain's hook: after a real LocalTrain the sign-flip client's
// weights are prev + −(W_honest − prev), bit for bit, where W_honest is its
// honest twin's (the kernels are serial, so the twins train identically).
// A literal −ΔW_honest comparison would not hold: (p + (−d)) − p rounds.
func TestByzantineHookFiresInLocalTrain(t *testing.T) {
	ds := [][]*graph.Graph{testGraphs(20)}
	honest := NewClients(testBase(), ds, 0.005)[0]
	evil := NewClients(testBase(), ds, 0.005)[0]
	MakeByzantine(evil, SignFlip{})

	cfg := smallConfig().Train
	honest.LocalTrain(cfg)
	evil.LocalTrain(cfg)

	prev, hw, ew := honest.prev.Data(), honest.Model.Params().Data(), evil.Model.Params().Data()
	for i := range hw {
		if want := prev[i] + -(hw[i] - prev[i]); math.Float64bits(ew[i]) != math.Float64bits(want) {
			t.Fatalf("element %d: evil weight %v, want prev + −(honest − prev) = %v", i, ew[i], want)
		}
	}
}

// TestNaNClientRejectedBySimulatorGate: the non-finite weights produced by
// a NaN injector must be catchable with mat.CheckFinite before aggregation
// — the same gate the networked server applies.
func TestNaNClientRejectedBySimulatorGate(t *testing.T) {
	c := NewClients(testBase(), [][]*graph.Graph{testGraphs(20)}, 0.005)[0]
	MakeByzantine(c, NaNInject{})
	c.LocalTrain(smallConfig().Train)
	if mat.CheckFinite(c.Model.Params().Flatten()) < 0 {
		t.Fatal("NaN injector produced finite weights")
	}
}
