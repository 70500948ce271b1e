package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzTraceDecode throws arbitrary bytes at the stream decoder. The
// contract under fire: decoding never panics, never loops forever,
// never fabricates an unknown kind, and a valid header always yields a
// (possibly empty, possibly truncated) event sequence rather than a
// hard error.
func FuzzTraceDecode(f *testing.F) {
	// Seed with a well-formed stream...
	var good bytes.Buffer
	w, err := NewWriter(&good, Config{})
	if err != nil {
		f.Fatal(err)
	}
	a, b := w.Intern("T1"), w.Intern("L1")
	w.Emit(Entry{Tick: 10, Kind: KindPause, A: a, B: b, Prio: 1, Depth: 9216})
	w.Emit(Entry{Tick: 20, Kind: KindResume, A: a, B: b, Prio: 1})
	e1, e2 := w.Intern("T1->L1 prio 1"), w.Intern("L1->T1 prio 1")
	w.Emit(Entry{Tick: 30, Kind: KindDeadlock, A: a, Aux: 2})
	w.Emit(Entry{Tick: 30, Kind: KindCycleEdge, C: e1})
	w.Emit(Entry{Tick: 30, Kind: KindCycleEdge, C: e2})
	w.Emit(Entry{Tick: 40, Kind: KindDetect, A: b, B: a, C: w.Intern("pause"), Prio: 1})
	w.Emit(Entry{Tick: 50, Kind: KindMitigate, A: b, C: w.Intern("drop"), Prio: 1, Depth: 4096})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	// ...and adversarial shapes: bare header, torn entry, lying strdef
	// length, giant deadlock aux with no edges.
	hdr := good.Bytes()[:HeaderSize]
	f.Add(hdr)
	f.Add(good.Bytes()[:HeaderSize+EntrySize-3])
	f.Add(append(append([]byte{}, hdr...), rawEntry(Entry{Kind: KindStrDef, A: 1, Aux: 60000})...))
	f.Add(append(append([]byte{}, hdr...), rawEntry(Entry{Kind: KindDeadlock, A: 1, Aux: 65535})...))
	f.Add([]byte("{\"t\":1,\"kind\":\"pause\"}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			var ve *VersionError
			if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrEndianSwapped) ||
				errors.Is(err, ErrTruncated) || errors.As(err, &ve) ||
				err.Error() == "trace: header declares a zero tick rate" {
				return
			}
			t.Fatalf("unexpected header error: %v", err)
		}
		// Every stream is finite: at most len(data) slots of anything.
		for i := 0; i <= len(data)/EntrySize+1; i++ {
			ev, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("decode error: %v", err)
			}
			if KindOf(ev.Kind) == KindInvalid {
				t.Fatalf("fabricated kind %q", ev.Kind)
			}
		}
		t.Fatal("decoder yielded more events than the stream has slots")
	})
}
