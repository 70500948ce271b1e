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
// the chip's port count; here it grows on demand in 64-bit words.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns a bitmap sized for at least n ports.
func NewBitmap(n int) Bitmap {
	if n <= 0 {
		return Bitmap{}
	}
	return Bitmap{words: make([]uint64, (n+63)/64)}
}

// Set sets bit i, growing the bitmap if needed.
func (b *Bitmap) Set(i int) {
	w := i / 64
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << uint(i%64)
}

// Get reports bit i.
func (b Bitmap) Get(i int) bool {
	w := i / 64
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<uint(i%64)) != 0
}

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// trim drops trailing zero words so that bitmaps with identical bit sets
// have identical representations regardless of how they were built
// (pre-sized via NewBitmap vs grown by Set). Canonical representations
// make struct-level comparisons (reflect.DeepEqual in the determinism
// and differential tests) agree with Equal.
func (b *Bitmap) trim() {
	for len(b.words) > 0 && b.words[len(b.words)-1] == 0 {
		b.words = b.words[:len(b.words)-1]
	}
}

// Union sets every bit of o in b (mask-merge). Word counts need not
// match; b grows as needed and trailing zero words in o add nothing.
func (b *Bitmap) Union(o Bitmap) {
	for len(b.words) < len(o.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Compare orders bitmaps by their bit sets, treating them as unbounded
// integers (zero-extended): -1, 0, or +1. Bitmaps that Equal compare 0
// regardless of trailing zero words.
func (b Bitmap) Compare(o Bitmap) int {
	n := len(b.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := n - 1; i >= 0; i-- {
		var x, y uint64
		if i < len(b.words) {
			x = b.words[i]
		}
		if i < len(o.words) {
			y = o.words[i]
		}
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Equal reports whether two bitmaps have identical bit sets.
func (b Bitmap) Equal(o Bitmap) bool {
	n := len(b.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var x, y uint64
		if i < len(b.words) {
			x = b.words[i]
		}
		if i < len(o.words) {
			y = o.words[i]
		}
		if x != y {
			return false
		}
	}
	return true
}

// Key returns a canonical string usable as a map key.
func (b Bitmap) Key() string {
	// Trim trailing zero words so logically equal bitmaps share a key.
	end := len(b.words)
	for end > 0 && b.words[end-1] == 0 {
		end--
	}
	var sb strings.Builder
	for i := 0; i < end; i++ {
		fmt.Fprintf(&sb, "%016x", b.words[i])
	}
	return sb.String()
}

// Ports returns the indices of set bits in ascending order.
func (b Bitmap) Ports() []int { return b.appendPorts(nil) }

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

// String renders the bitmap LSB-last over width w (like the paper's
// Figure 9, where the first bit from the right is port 0... the paper
// numbers from 1; we keep 0-based and render right-to-left). width <= 0
// renders the logical width — trailing zero words are not rendered, so
// logically equal bitmaps stringify identically however they were built.
func (b Bitmap) String(width int) string {
	if width <= 0 {
		end := len(b.words)
		for end > 0 && b.words[end-1] == 0 {
			end--
		}
		width = end * 64
	}
	buf := make([]byte, width)
	for i := 0; i < width; i++ {
		if b.Get(width - 1 - i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
