package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"streamline/internal/core"
	"streamline/internal/prefetch/triage"
	"streamline/internal/prefetch/triangel"
)

// TestArmDigestGolden pins, bit for bit, the engine variants that only the
// experiments build: arms no streamd Spec can name, so TestSpecDigestGolden
// does not reach them and the micro tables pin them only through rounded
// cells. Each arm runs on sphinx06 at Micro budgets behind a stride L1D, and
// the SHA-256 of its marshalled sim.Result must match the recorded digest.
// A moved digest means the variant simulates differently.
func TestArmDigestGolden(t *testing.T) {
	streamline := func(name string, mod func(*core.Options)) Arm {
		return streamlineArm(name, "stride", "", mod)
	}
	triangelVariant := func(name string, mod func(*triangel.Config)) Arm {
		return triangelArm(name, "stride", "", mod)
	}
	cases := []struct {
		arm  Arm
		want string
	}{
		{streamline("streamline-unopt", func(o *core.Options) { *o = withScale(core.UnoptOptions(), *o) }),
			"21a1208a5297e88c4ad10f80ea0d8e20b6548c52a21a55460abaa4c68284266c"},
		{streamline("streamline-no-buffer", func(o *core.Options) { o.MetaBufferSize = 0 }),
			"02a39835c2381a11aa10c19d0d268c31e0aeb58f19343df937b48fa07fbcc3e8"},
		{streamline("streamline-no-alignment", func(o *core.Options) { o.DisableAlignment = true }),
			"38d30b9e0eae014de316103f399fdd7b7d779b43f3f5d61a69d9f55fab56e072"},
		{streamline("streamline-fixed-half", func(o *core.Options) { o.FixedBytes = o.MetaBytes / 2 }),
			"6fcc5a4c63187d0467d09cd3dce8197802e563277a698c75e13d875180c2ba95"},
		{streamline("streamline-skewed", func(o *core.Options) { o.Skewed = true }),
			"1253f7c635aa97af183168266ba387f4eaeb0df6ea5a56219c8044330d5ee92a"},
		{streamline("streamline-hybrid", func(o *core.Options) { o.Hybrid = true }),
			"f8dd486c63ada906b2c863aab915fc96370949f6018dbc8e1d10a6c9f328c035"},
		{triangelVariant("triangel-degree-1", func(c *triangel.Config) { c.MaxDegree = 1 }),
			"08784c37bece1f81e3373af8703c854466ab0eb3c62316c2ab2e9b6d10b8ab13"},
		{triangelVariant("triangel-tp-mockingjay", func(c *triangel.Config) { c.Policy = core.NewTPMockingjay }),
			"390087445b1a97da43450b94d302e4ad1445af0e119f5f012c4e63d8df9115a1"},
		{triageArm("triage-lut-256", "stride", "", func(c *triage.Config) { c.LUTSize = 256 }),
			"a84a3d19c72ad76585405a7e719716eac62fd7d9c8adf50a8c83c09c66570a30"},
		{idealTriageArm(),
			"d7aa1420bd192a025f77c009d57abb73452c7812ee97b8baf790673033d0a818"},
	}
	r := NewRunner(Micro)
	for _, c := range cases {
		e := runCell(r, c.arm, "sphinx06")
		if e.err != nil {
			t.Fatalf("%s: %v", c.arm.Name, e.err)
		}
		b, err := json.Marshal(e.res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: result digest %s, want %s", c.arm.Name, got, c.want)
		}
	}
}
