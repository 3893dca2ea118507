package assign

import (
	"mhla/internal/platform"
	"mhla/internal/reuse"
)

// MaxSpaceSize is the value SpaceSize saturates at.
const MaxSpaceSize int64 = 1 << 62

// SpaceSize returns the number of leaves of the exact engines'
// decision tree before capacity (Fits) pruning: the product over
// arrays of their candidate home layers and over reuse chains of
// their monotone copy-candidate selections. The product saturates at
// MaxSpaceSize. The scenario generator (internal/progen) uses it to
// keep generated instances tractable for the exhaustive reference
// engine, and tests use it to reason about search effort.
func SpaceSize(an *reuse.Analysis, plat *platform.Platform) int64 {
	size := int64(1)
	mul := func(n int64) {
		if n <= 0 {
			n = 1
		}
		if size > MaxSpaceSize/n {
			size = MaxSpaceSize
			return
		}
		size *= n
	}
	for _, arr := range an.Program.Arrays {
		mul(int64(len(arrayHomes(plat, arr))))
	}
	for _, ch := range an.Chains {
		mul(int64(len(chainOptions(plat, ch))))
	}
	return size
}
