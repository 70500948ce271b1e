package tagger

import "testing"

func TestTable5ECMPCase(t *testing.T) {
	row, err := Table5CaseWith(40, 10, 0, 1, RunOptions{Par: 1, ECMP: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Table5Case(40, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.ELPSize <= plain.ELPSize {
		t.Errorf("ECMP ELP %d not denser than per-pair %d", row.ELPSize, plain.ELPSize)
	}
	if row.Priorities > 3 {
		t.Errorf("ECMP ELP needs %d priorities, want <= 3 (Table 5)", row.Priorities)
	}
	t.Logf("plain: %d paths/%d prios; ecmp: %d paths/%d prios, %d rules",
		plain.ELPSize, plain.Priorities, row.ELPSize, row.Priorities, row.Rules)
}
