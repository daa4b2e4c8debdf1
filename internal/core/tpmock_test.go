package core

import (
	"fmt"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/meta"
)

// reuseAt returns PC a's reuse-distance prediction, which starts at start
// (negative: untrained), after a sampled set sees a's correlation again d
// sampled accesses later. The accesses between go to one other correlation
// under PC b, so a's stays in the sampler.
func reuseAt(t *testing.T, d int, start int8) int8 {
	const a, b mem.PC = 1, 2
	pol := NewTPMockingjay(1, 8).(*tpMockingjay)
	corr := meta.EntryAccess{PC: a, Trigger: 100, FirstTarget: 101}
	other := meta.EntryAccess{PC: b, Trigger: 200, FirstTarget: 201}
	if pol.samplers[0] == nil || pol.pcSig(a) == pol.pcSig(b) || corrHash(corr) == corrHash(other) {
		t.Fatal("the set is unsampled, or the two PCs or correlations share a hash")
	}
	pol.rdp[pol.pcSig(a)] = start
	pol.Fill(0, 0, corr)
	for i := 1; i < d; i++ {
		pol.Fill(0, 1, other)
	}
	pol.Fill(0, 0, corr)
	return pol.rdp[pol.pcSig(a)]
}

// towardDistance checks the training rule on one observation: a PC's
// prediction cur (negative: untrained) becomes n after its correlation is
// seen again at sampled distance d. An untrained PC takes d, saturated at
// most to the RDP's maximum 63; a trained one moves toward d without
// passing it, and stays put only at d or at the maximum with d above it.
func towardDistance(d int, cur, n int8) error {
	c, m := int(cur), int(n)
	ok := false
	switch {
	case m < 0:
	case c < 0:
		ok = min(d, 63) <= m && m <= d
	case d == c:
		ok = m == c
	case d > c:
		ok = c < m && m <= d || c == 63 && m == 63
	default:
		ok = d <= m && m < c
	}
	if !ok {
		return fmt.Errorf("a reuse at distance %d moved the prediction from %d to %d", d, c, m)
	}
	return nil
}

// TestTPMockingjayTrainsTowardSampledDistance is TP-Mockingjay's training
// rule (Section IV-E5) as a property over every sampled distance up to
// 127, from an untrained PC and from ones trained to 0, 20 and 63.
//
// wrapDistance pins the int8 wrap in sample: a distance of 128-255 reads
// as negative, so an untrained PC stays untrained and one trained to 0
// stays at immediate reuse. From a higher prediction train's own int8
// subtraction can wrap back onto the right side, so only those two starts
// are pinned. Computing the distance in a wider type, saturated at the
// RDP's maximum, fixes the wrap and flips this case.
func TestTPMockingjayTrainsTowardSampledDistance(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int
		starts []int8
		holds  bool
	}{
		{"distance", 1, 127, []int8{-1, 0, 20, 63}, true},
		{"wrapDistance", 128, 255, []int8{-1, 0}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			for d := c.lo; d <= c.hi; d++ {
				for _, start := range c.starts {
					if err := towardDistance(d, start, reuseAt(t, d, start)); (err == nil) != c.holds {
						t.Errorf("distance %d from %d: the rule holds: %v, want %v (%v)", d, start, err == nil, c.holds, err)
					}
				}
			}
		})
	}
}
