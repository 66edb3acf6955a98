package fusion

import (
	"fexiot/internal/rules"
)

// condKey identifies a device-state condition exactly.
type condKey struct {
	dev, room string
	ch        rules.Channel
	state     string
}

// envKey identifies an environmental influence (channel pushed in a
// direction within a room).
type envKey struct {
	ch   rules.Channel
	sign int
	room string
}

// PoolIndex accelerates correlated-partner lookup over a large rule pool:
// given a rule, it returns the pool rules its actions can trigger (forward)
// and the pool rules whose actions can trigger it (backward) without
// scanning the pool. Semantics mirror rules.CanTrigger exactly.
//
// A rule's number is the first pool position that lists it. Every distinct
// condition and environmental push gets a key, and a key chains, in pool
// order, the numbers of the rules it triggers and of the rules that cause
// it; all chains live in one array. Lookups dedupe through a stamp per
// number instead of a map per call, which makes them writes: an index must
// not be shared between goroutines without a lock.
type PoolIndex struct {
	pool   []*rules.Rule
	number map[*rules.Rule]int32

	conds    map[condKey]int32 // → condKeys
	envs     map[envKey]int32  // → envKeys
	condKeys []keyChains
	envKeys  []keyChains
	links    []link

	stamp   []uint32 // per number: the lookup that last returned it
	lookup  uint32
	numbers []int32 // scratch of the exported lookups
}

// keyChains are the two rule lists of one key: the rules it triggers and
// the rules whose actions cause it.
type keyChains struct{ trig, act chain }

// chain is a list threaded through PoolIndex.links (-1: none).
type chain struct{ head, tail int32 }

type link struct{ rule, next int32 }

// NewPoolIndex indexes pool.
func NewPoolIndex(pool []*rules.Rule) *PoolIndex {
	ix := &PoolIndex{
		number: map[*rules.Rule]int32{},
		conds:  map[condKey]int32{},
		envs:   map[envKey]int32{},
	}
	ix.reset(pool)
	return ix
}

// reset re-indexes ix over pool, keeping its storage.
func (ix *PoolIndex) reset(pool []*rules.Rule) {
	ix.pool = pool
	clear(ix.number)
	clear(ix.conds)
	clear(ix.envs)
	ix.condKeys, ix.envKeys, ix.links = ix.condKeys[:0], ix.envKeys[:0], ix.links[:0]
	if cap(ix.stamp) < len(pool) {
		ix.stamp = make([]uint32, len(pool))
	}
	ix.stamp = ix.stamp[:len(pool)]
	clear(ix.stamp)
	ix.lookup = 0

	for i, r := range pool {
		n, listed := ix.number[r]
		if !listed {
			n = int32(i)
			ix.number[r] = n
		}
		t := r.Trigger
		ix.push(&chainsOf(ix.conds, &ix.condKeys, condKey{t.Device, t.Room, t.Channel, t.State}).trig, n)
		if s := rules.StateSign(t.State); s != 0 {
			ix.push(&chainsOf(ix.envs, &ix.envKeys, envKey{t.Channel, s, t.Room}).trig, n)
		}
		for _, a := range r.Actions {
			ix.push(&chainsOf(ix.conds, &ix.condKeys, condKey{a.Device, a.Room, a.Channel, a.State}).act, n)
			for _, d := range a.Env {
				ix.push(&chainsOf(ix.envs, &ix.envKeys, envKey{d.Channel, d.Sign, a.Room}).act, n)
			}
		}
	}
}

// chainsOf returns k's chains in lists, adding the key when new.
func chainsOf[K comparable](ids map[K]int32, lists *[]keyChains, k K) *keyChains {
	id, ok := ids[k]
	if !ok {
		id = int32(len(*lists))
		ids[k] = id
		*lists = append(*lists, keyChains{chain{-1, -1}, chain{-1, -1}})
	}
	return &(*lists)[id]
}

func (ix *PoolIndex) push(c *chain, rule int32) {
	at := int32(len(ix.links))
	ix.links = append(ix.links, link{rule, -1})
	if c.tail < 0 {
		c.head = at
	} else {
		ix.links[c.tail].next = at
	}
	c.tail = at
}

// begin starts a lookup that will not return self (-1: a rule outside the
// pool) nor any number twice.
func (ix *PoolIndex) begin(self int32) {
	ix.lookup++
	if ix.lookup == 0 { // wrapped: old stamps could pass for this lookup's
		clear(ix.stamp)
		ix.lookup = 1
	}
	if self >= 0 {
		ix.stamp[self] = ix.lookup
	}
}

// take appends the numbers on c this lookup has not returned yet.
func (ix *PoolIndex) take(dst []int32, c chain) []int32 {
	for at := c.head; at >= 0; at = ix.links[at].next {
		if n := ix.links[at].rule; ix.stamp[n] != ix.lookup {
			ix.stamp[n] = ix.lookup
			dst = append(dst, n)
		}
	}
	return dst
}

// forward appends the numbers of the rules anchor's actions can trigger:
// per action, the rules watching exactly its state, then the rules
// watching each environmental push.
func (ix *PoolIndex) forward(dst []int32, anchor *rules.Rule) []int32 {
	for _, a := range anchor.Actions {
		if id, ok := ix.conds[condKey{a.Device, a.Room, a.Channel, a.State}]; ok {
			dst = ix.take(dst, ix.condKeys[id].trig)
		}
		for _, d := range a.Env {
			if id, ok := ix.envs[envKey{d.Channel, d.Sign, a.Room}]; ok {
				dst = ix.take(dst, ix.envKeys[id].trig)
			}
		}
	}
	return dst
}

// backward appends the numbers of the rules whose actions can trigger
// anchor: those setting exactly its trigger state, then those pushing its
// channel towards it.
func (ix *PoolIndex) backward(dst []int32, anchor *rules.Rule) []int32 {
	t := anchor.Trigger
	if id, ok := ix.conds[condKey{t.Device, t.Room, t.Channel, t.State}]; ok {
		dst = ix.take(dst, ix.condKeys[id].act)
	}
	if s := rules.StateSign(t.State); s != 0 {
		if id, ok := ix.envs[envKey{t.Channel, s, t.Room}]; ok {
			dst = ix.take(dst, ix.envKeys[id].act)
		}
	}
	return dst
}

// neighbors appends anchor's forward partners, then the backward partners
// that are not forward ones too. self is anchor's number.
func (ix *PoolIndex) neighbors(dst []int32, anchor *rules.Rule, self int32) []int32 {
	ix.begin(self)
	return ix.backward(ix.forward(dst, anchor), anchor)
}

// numberOf returns anchor's number, -1 for a rule the pool does not list.
func (ix *PoolIndex) numberOf(anchor *rules.Rule) int32 {
	if n, ok := ix.number[anchor]; ok {
		return n
	}
	return -1
}

// rulesOf appends the rules numbered ix.numbers to dst.
func (ix *PoolIndex) rulesOf(dst []*rules.Rule) []*rules.Rule {
	for _, n := range ix.numbers {
		dst = append(dst, ix.pool[n])
	}
	return dst
}

// Forward appends to dst the pool rules that anchor's actions can trigger.
func (ix *PoolIndex) Forward(dst []*rules.Rule, anchor *rules.Rule) []*rules.Rule {
	ix.begin(ix.numberOf(anchor))
	ix.numbers = ix.forward(ix.numbers[:0], anchor)
	return ix.rulesOf(dst)
}
