package controller

import (
	"testing"

	"repro/internal/deploy"
)

// BenchmarkSameRules is the staged-readback comparison of one
// Jellyfish-200-sized switch table (≈120 rules): Canonical is what a
// healthy agent returns (decided element-wise), Reordered takes the
// multiset path.
func BenchmarkSameRules(b *testing.B) {
	want := make([]deploy.RuleJSON, 120)
	for i := range want {
		want[i] = deploy.RuleJSON{Tag: 1 + i/40, In: i % 24, Out: (i * 7) % 24, NewTag: 1 + i/40}
	}
	reordered := append([]deploy.RuleJSON(nil), want...)
	reordered[0], reordered[len(reordered)-1] = reordered[len(reordered)-1], reordered[0]
	for _, c := range []struct {
		name string
		got  []deploy.RuleJSON
	}{{"Canonical", append([]deploy.RuleJSON(nil), want...)}, {"Reordered", reordered}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !sameRules(c.got, want) {
					b.Fatal("equal tables compared unequal")
				}
			}
		})
	}
}
