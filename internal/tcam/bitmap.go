// Package tcam models the TCAM representation of Tagger's match-action
// rules on commodity switching ASICs (§7 of the paper): port-bitmap
// patterns and masks, the three-step classification pipeline, and the
// rule-compression scheme of Figure 9 that reduces the per-switch entry
// count from n(n-1)·m(m-1)/2 to n·m(m-1)/2 and below.
package tcam

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitmap is a fixed-width port bitmap as used by commodity ASIC TCAM
// patterns: bit i set means port i matches. On real hardware the width is
// the chip's port count; here it grows on demand in 64-bit words. Only Set
// and Union grow it, so its last word is never zero: logically equal
// bitmaps are struct-equal, and reflect.DeepEqual in the determinism and
// differential tests compares bit sets.
type Bitmap struct {
	words []uint64
}

// Set sets bit i, growing the bitmap if needed.
func (b *Bitmap) Set(i int) {
	w := i / 64
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << uint(i%64)
}

// Union sets every bit of o in b (mask-merge). Word counts need not
// match; b grows as needed.
func (b *Bitmap) Union(o Bitmap) {
	for len(b.words) < len(o.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Key returns a canonical string usable as a map key.
func (b Bitmap) Key() string {
	var sb strings.Builder
	for _, w := range b.words {
		fmt.Fprintf(&sb, "%016x", w)
	}
	return sb.String()
}

// appendPorts appends the indices of set bits to out in ascending order.
func (b Bitmap) appendPorts(out []int) []int {
	for wi, w := range b.words {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			out = append(out, wi*64+i)
			w &^= 1 << uint(i)
		}
	}
	return out
}
