package trace

import (
	"slices"
	"testing"
)

func TestFindCycle(t *testing.T) {
	for _, c := range []struct {
		name string
		adj  [][]int
		want []int
	}{
		{"empty", nil, nil},
		{"dag", [][]int{{1, 2}, {2}, {}}, nil},
		{"self-loop", [][]int{{}, {1}}, []int{1}},
		{"ring entered mid-way", [][]int{{1}, {2}, {3}, {1}}, []int{2, 3, 1}},
		{"first in list order wins", [][]int{{2, 1}, {0}, {0}}, []int{2, 0}},
	} {
		if got := FindCycle(c.adj); !slices.Equal(got, c.want) {
			t.Errorf("%s: FindCycle = %v, want %v", c.name, got, c.want)
		}
	}
}
