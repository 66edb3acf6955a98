//go:build debugarena

package autodiff

import (
	"math"
	"testing"

	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// TestPoisonCatchesUseAfterRecycle proves the debugarena mode does its job:
// a node value retained across Reset without a copy reads back NaN poison,
// so any code that breaks the ownership rules of the package docs fails
// loudly under `go test -tags=debugarena` instead of silently reading
// whatever the next pass wrote.
func TestPoisonCatchesUseAfterRecycle(t *testing.T) {
	if !mat.ArenaPoisonEnabled {
		t.Fatal("debugarena build without poison enabled")
	}
	params := reuseParams(21)
	x := rng.New(23).Gaussian(5, 6, 1)
	tape := NewTape()
	b := Bind(tape, params)
	h := tape.ReLU(tape.MatMul(tape.Constant(x), b.Node("w1")))
	stale := h.Value // ownership violation: kept without Value.Clone()
	tape.Reset()

	poisoned := false
	for _, v := range stale.Data() {
		if math.IsNaN(v) {
			poisoned = true
			break
		}
	}
	if !poisoned {
		t.Fatal("recycled tape value not poisoned: use-after-recycle would go undetected")
	}
}
