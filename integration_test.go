package tagger

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/deploy"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestFullDeploymentChain exercises the entire operator pipeline in one
// pass: synthesize -> verify -> export JSON bundle -> re-import on a
// "different controller" -> compile per-switch TCAMs -> push real RoCEv2
// frames through every ELP path -> confirm the byte-level tags match the
// abstract model, end to end.
func TestFullDeploymentChain(t *testing.T) {
	clos := PaperTestbed()
	set := KBounceELP(clos, 1)

	// 1. Synthesize and verify.
	sys, err := SynthesizeClos(clos, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Runtime.Verify(); err != nil {
		t.Fatal(err)
	}

	// 2. Export -> bytes -> import (a fresh controller restoring state).
	data, err := deploy.Export(sys.Rules).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := deploy.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := deploy.Import(clos.Graph, bundle)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Compile the frame-level dataplane from the RESTORED rules.
	dp := dataplane.Compile(clos.Graph, restored)
	if dp.TotalEntries() == 0 {
		t.Fatal("empty dataplane")
	}

	// 4. Forward an encoded frame along every ELP path; tags must match
	// the original (pre-serialization) system's replay hop for hop.
	for _, p := range set.Paths() {
		want := sys.Rules.Replay(p, 1)
		frame := wire.EncodeRoCEv2(&wire.RoCEv2Packet{
			IP:  wire.IPv4{DSCP: 1, TTL: 64},
			BTH: wire.BTH{Opcode: wire.OpcodeRCWriteOnly},
		})
		got, err := dp.ForwardFrame(frame, p)
		if err != nil {
			t.Fatalf("path %s: %v", p.String(clos.Graph), err)
		}
		for i := range got {
			if got[i] != want.Tags[i] {
				t.Fatalf("path %s hop %d: frame %d vs abstract %d",
					p.String(clos.Graph), i, got[i], want.Tags[i])
			}
		}
	}

	// 5. The restored rules drive a simulation identically: the Figure 10
	// scenario stays deadlock-free.
	n := sim.New(clos.Graph, routing.ComputeToHosts(clos.Graph, routing.UpDown), sim.DefaultConfig())
	n.InstallTagger(restored)
	g := clos.Graph
	n.AddFlow(sim.FlowSpec{
		Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1"),
		Pin: Path{g.MustLookup("H9"), g.MustLookup("T3"), g.MustLookup("L3"),
			g.MustLookup("S2"), g.MustLookup("L1"), g.MustLookup("S1"),
			g.MustLookup("L2"), g.MustLookup("T1"), g.MustLookup("H1")},
	})
	n.AddFlow(sim.FlowSpec{
		Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: 1_000_000,
		Pin: Path{g.MustLookup("H2"), g.MustLookup("T1"), g.MustLookup("L1"),
			g.MustLookup("S1"), g.MustLookup("L3"), g.MustLookup("S2"),
			g.MustLookup("L4"), g.MustLookup("T4"), g.MustLookup("H13")},
	})
	n.Run(10_000_000)
	if n.Deadlocked() {
		t.Fatal("restored deployment deadlocked")
	}
	if d := n.Drops(); d.Total() != 0 {
		t.Fatalf("restored deployment dropped: %+v", d)
	}
}
