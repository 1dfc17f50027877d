package rel

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueEncodingUnchanged pins, for a table of edge values, every
// encoding other packages build identities from — Key, Hash, the As*
// accessors, String and the Compare matrix — to the figures recorded for
// the 40-byte five-field Value, and the value's size to 32 bytes.
func TestValueEncodingUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000abc)
	cases := []struct {
		v      Value
		key    string
		hash   uint64
		asInt  int64
		asF    uint64 // AsFloat's bits
		asBool bool
		str    string
	}{
		{Null(), "n", 0x501e5f38b9a2547e, 0, 0x7ff8000000000001, false, "NULL"},
		{Bool(false), "b0", 0x2b7379917c575e51, 0, 0x7ff8000000000001, false, "false"},
		{Bool(true), "b1", 0x6daee0a1a99e97d8, 0, 0x7ff8000000000001, true, "true"},
		{Int(0), "f0", 0xc55d3054e40f9276, 0, 0x0, false, "0"},
		{Int(-1), "f-1", 0x165f50e908102165, -1, 0xbff0000000000000, false, "-1"},
		{Int(math.MinInt64), "f-9.223372036854776e+18", 0xf95b03a6ce480b29, math.MinInt64, 0xc3e0000000000000, false, "-9223372036854775808"},
		{Int(math.MaxInt64), "f9.223372036854776e+18", 0x822f54d82d08d2c5, math.MaxInt64, 0x43e0000000000000, false, "9223372036854775807"},
		{Int(1<<53 + 1), "f9.007199254740992e+15", 0xfc8eac5722c47a69, 1<<53 + 1, 0x4340000000000000, false, "9007199254740993"},
		{Float(0), "f0", 0xc55d3054e40f9276, 0, 0x0, false, "0"},
		{Float(math.Copysign(0, -1)), "f0", 0xc55d3054e40f9276, 0, 0x8000000000000000, false, "-0"},
		{Float(nan1), "fNaN", 0xa310a2e4733726e0, nonFinite, 0x7ff8000000000001, false, "NaN"},
		{Float(nan2), "fNaN", 0xa310a2e4733726e0, nonFinite, 0xfff0000000000abc, false, "NaN"},
		{Float(math.Inf(1)), "f+Inf", 0xfd64b05d200e544c, nonFinite, 0x7ff0000000000000, false, "+Inf"},
		{Float(math.Inf(-1)), "f-Inf", 0xae54d5acd5ff5bb9, nonFinite, 0xfff0000000000000, false, "-Inf"},
		{Float(5e-324), "f5e-324", 0xce2a67e01dbf3cd4, 0, 0x1, false, "5e-324"},
		{String(""), "s", 0xbe80ce7b690e77cd, 0, 0x7ff8000000000001, false, ""},
		{String("|"), "s|", 0xc3568cb3839561c3, 0, 0x7ff8000000000001, false, "|"},
		{String("\\"), "s\\", 0xc3566cb383952b63, 0, 0x7ff8000000000001, false, "\\"},
		{String("1"), "s1", 0xc356d7b38395e134, 0, 0x7ff8000000000001, false, "1"},
	}
	// compare[i][j] is Compare(cases[i].v, cases[j].v) as '-', '0' or '+'.
	compare := []string{
		"0------------------",
		"+0-----------------",
		"++0----------------",
		"+++0++--00++-+-----",
		"+++-0+----++-+-----",
		"+++--0----++-+-----",
		"++++++0+++++-++----",
		"++++++-0++++-++----",
		"+++0++--00++-+-----",
		"+++0++--00++-+-----",
		"+++-------00-------",
		"+++-------00-------",
		"++++++++++++0++----",
		"+++-------++-0-----",
		"++++++--++++-+0----",
		"+++++++++++++++0---",
		"++++++++++++++++0++",
		"++++++++++++++++-0+",
		"++++++++++++++++--0",
	}
	for i, c := range cases {
		v := c.v
		if got := v.Key(); got != c.key {
			t.Errorf("%d %v: Key = %q, want %q", i, v, got, c.key)
		}
		if got := v.Hash(HashSeed); got != c.hash {
			t.Errorf("%d %v: Hash = %#x, want %#x", i, v, got, c.hash)
		}
		wantInt := c.asInt
		if wantInt == nonFinite {
			// Converting NaN or ±Inf to int64 is implementation-specific:
			// pin AsInt to the conversion itself.
			f := math.Float64frombits(c.asF)
			wantInt = int64(f)
		}
		if got := v.AsInt(); got != wantInt {
			t.Errorf("%d %v: AsInt = %d, want %d", i, v, got, wantInt)
		}
		if got := math.Float64bits(v.AsFloat()); got != c.asF {
			t.Errorf("%d %v: AsFloat bits = %#x, want %#x", i, v, got, c.asF)
		}
		if got := v.AsBool(); got != c.asBool {
			t.Errorf("%d %v: AsBool = %v, want %v", i, v, got, c.asBool)
		}
		if got := v.String(); got != c.str {
			t.Errorf("%d: String = %q, want %q", i, got, c.str)
		}
		for j, d := range cases {
			if got, want := "-0+"[Compare(v, d.v)+1], compare[i][j]; got != want {
				t.Errorf("Compare(%v, %v) = %c, want %c", v, d.v, got, want)
			}
		}
	}
}

// nonFinite marks an AsInt expectation taken from Go's own conversion.
const nonFinite = math.MinInt64 + 1
