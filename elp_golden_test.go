package tagger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/synthcache"
	"repro/internal/topology"
)

// elpHash is the SHA-256 of a path list: every path's length and node
// IDs as little-endian uint32s, in list order. It pins content AND order
// — tag numbering downstream depends on both.
func elpHash(paths []routing.Path) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, p := range paths {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		for _, n := range p {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		}
		if len(buf) > 1<<15 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// The k-bounce ELPs of the benchmarked Clos fabrics, pinned by hash. The
// constants were captured from the map-based enumerator at commit 716bed4
// (the parent of the dense one) and are the reference any later producer
// — including ROADMAP item 2's ELP view — must reproduce.
const (
	goldenKBounceFatTree4 = "8e6dc19ff92640f7d47c7a989a3e28e4965188362a33babe48d6fdfe32506cff"
	goldenKBounceFatTree8 = "9c3e58f059bba1e92ac7f76aa7e7b91fece8c599821534680c9a107697e4ec89"
	goldenKBounceClos4x8  = "5c94582776eabcd85ded27a8d83c21a08fbaf248e142b650b5269e08af8555c6"
	goldenStampedFatTree8 = "833173d0301caa84e2bd004c0c016ef8d94102b89877bd13617f8b978d058b05"
	// What the stamped build hands on besides the ELP: the marshalled
	// deployment bundle and the runtime graph (vertices then edges, in
	// Nodes()/Edges() order, as uint32 port and tag).
	goldenStampedFatTree8Bundle  = "6622e79d4696d4a92faf0da9f96e8519e757f466b08c1880479d19a398085c2a"
	goldenStampedFatTree8Runtime = "753a150e78e8bc447e615ed523d535ff7fd6ea9a909e22ea1d95253a8f74f741"
	goldenKBounceFatTree8N       = 5177984
)

func TestKBounceELPGolden(t *testing.T) {
	check := func(name string, paths []routing.Path, want string) {
		t.Helper()
		if got := elpHash(paths); got != want {
			t.Errorf("%s: %d paths hash %s, want %s", name, len(paths), got, want)
		}
	}

	ft4, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	check("fattree4", elp.KBounce(ft4.Graph, ft4.Edges, 1, nil).Paths(), goldenKBounceFatTree4)

	cl, err := topology.NewClos(topology.ClosConfig{Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 8, HostsPerToR: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("clos4x8", elp.KBounce(cl.Graph, cl.ToRs, 1, nil).Paths(), goldenKBounceClos4x8)

	if testing.Short() || raceEnabled {
		t.Skip("k=8 fat-tree (5.2M paths) skipped in -short and under the race detector")
	}
	ft8, err := topology.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	full := elp.KBounce(ft8.Graph, ft8.Edges, 1, nil).Paths()
	if len(full) != goldenKBounceFatTree8N {
		t.Errorf("fattree8: %d paths, want %d", len(full), goldenKBounceFatTree8N)
	}
	check("fattree8", full, goldenKBounceFatTree8)
	full = nil

	res, err := synthcache.New(2).ClosKBounce(ft8.Graph, ft8.Edges, 1)
	if err != nil || !res.PodMemoized {
		t.Fatalf("pod stamping not used (memoized=%v err=%v)", res.PodMemoized, err)
	}
	check("fattree8 pod-stamped", res.Sys.ELP, goldenStampedFatTree8)

	data, err := deploy.Export(res.Sys.Rules).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sha256Sum(data)); got != goldenStampedFatTree8Bundle {
		t.Errorf("fattree8 bundle: %d bytes hash %s, want %s", len(data), got, goldenStampedFatTree8Bundle)
	}
	var rt []byte
	vertex := func(n core.TagNode) {
		rt = binary.LittleEndian.AppendUint32(rt, uint32(n.Port))
		rt = binary.LittleEndian.AppendUint32(rt, uint32(n.Tag))
	}
	for _, n := range res.Sys.Runtime.Nodes() {
		vertex(n)
	}
	for _, e := range res.Sys.Runtime.Edges() {
		vertex(e.From)
		vertex(e.To)
	}
	if got := hex.EncodeToString(sha256Sum(rt)); got != goldenStampedFatTree8Runtime {
		t.Errorf("fattree8 runtime graph: %d vertices, %d edges hash %s, want %s",
			res.Sys.Runtime.NumNodes(), res.Sys.Runtime.NumEdges(), got, goldenStampedFatTree8Runtime)
	}
}

func sha256Sum(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}
